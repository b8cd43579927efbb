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

// handleVote pairs its mutation with direct coherence.
func (s *server) handleVote() {
	s.db.Vote(1, 1, 0)
	s.cache.Invalidate(subjectLeaderboard)
}

// handleComment reaches coherence through a package helper: an
// in-place patch, falling back to a refill.
func (s *server) handleComment() {
	s.db.AddComment(nil)
	s.refresh()
}

func (s *server) refresh() {
	if !s.cache.UpdateRev(subjectTrends+"00", func(v string, _ respcache.Rev) string { return v }) {
		_, _ = s.cache.GetOrFillRev(subjectTrends+"00", func(respcache.Rev) string { return "" })
	}
}
