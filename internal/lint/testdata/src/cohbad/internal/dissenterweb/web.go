package dissenterweb

import "dissenter/internal/respcache"

type server struct {
	cache *respcache.Cache[string]
}

// trendsSubject assembles a cache-subject key from a fresh literal.
func (s *server) trendsSubject() string {
	return "trends|" + "00" // want `cache-subject literal "trends\|"`
}

// dropLeaderboard spells the key out at the cache call: a reader
// filling under a renamed constant would never be invalidated.
func (s *server) dropLeaderboard() {
	s.cache.Invalidate("leader|") // want `cache-subject literal "leader\|"`
}

// A var is not the shared constant block either.
var homePrefix = "home|" // want `cache-subject literal "home\|"`
