package dissenterweb

import (
	"dissenter/internal/platform"
	"dissenter/internal/respcache"
)

// Subject constants are the one sanctioned home for the prefixes.
const (
	subjectTrends      = "trends|"
	subjectLeaderboard = "leader|"
)

type server struct {
	db    *platform.DB
	cache *respcache.Cache[string]
}

// handleVote only writes: coherence is the event view's job, so a
// mutation with no cache call in sight is not a finding.
func (s *server) handleVote() {
	s.db.Vote(1, 1, 0)
}

// apply builds every key from the constants: an exact drop, and an
// in-place patch falling back to a refill.
func (s *server) apply() {
	s.cache.Invalidate(subjectLeaderboard)
	if !s.cache.UpdateRev(subjectTrends+"00", func(v string, _ respcache.Rev) string { return v }) {
		_, _ = s.cache.GetOrFillRev(subjectTrends+"00", func(respcache.Rev) string { return "" })
	}
}

// Prose that merely mentions a prefix mid-string is not a key.
const help = "keys look like trends|<view>"
