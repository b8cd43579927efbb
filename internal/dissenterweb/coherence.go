package dissenterweb

import (
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/respcache"
)

// Response-cache coherence has one home: this file. A Server never
// invalidates because it performed a write; it learns of every write —
// its own handlers', another Server's over the same store, a
// replication stream's ApplyEvent, a direct db.AddComment — the same
// way, from the store's event stream. NewServer attaches the server's
// eventInvalidator to its DB through DB.RegisterView, the seam the
// store's own materialized views attach through, and the write
// handlers only validate, write and answer. Coherence therefore cannot
// be forgotten by a new write path, and primary and replicas run the
// same code.
//
// Apply runs synchronously inside the store's dispatch: after the base
// indexes and the built-in views (trends, leaderboard, page fragments —
// registered first, in platform.New) reflect the event, and before the
// write method returns. So a patch or a post-invalidation refill
// renders post-write state, a reader that rendered the pre-write store
// has its racing fill detached by the invalidation and never cached,
// and a handler that answers after its store write has
// read-your-writes for free.

// EventInvalidator returns the platform.View that keeps this server's
// response cache coherent with its store. NewServer has already
// registered it, and DB.RegisterView is idempotent per view value, so
// registering the returned view again is a no-op.
func (s *Server) EventInvalidator() platform.View {
	return eventInvalidator{s}
}

type eventInvalidator struct{ s *Server }

// Apply is the coherence contract: per event, exactly these subjects,
// every session view of each, by exact key. Nothing else is touched —
// other discussions, other profiles and single-comment pages (rendered
// uncached) keep their entries.
func (iv eventInvalidator) Apply(db *platform.DB, ev platform.Event) {
	s := iv.s
	switch e := ev.(type) {
	case platform.CommentAdded:
		// The URL's discussion page is patched in place; the author's
		// profile listing changed shape and comment counts order the
		// trends ranking, so both are dropped. Comments do not move vote
		// tallies: the leaderboard stays.
		if cu := db.URLByID(e.Comment.URLID); cu != nil {
			s.refreshDiscussion(cu.URL, cu.ID)
		}
		if author := db.UserByAuthorID(e.Comment.AuthorID); author != nil {
			s.invalidateSubject(HomeSubject(author.Username))
		}
		s.invalidateSubject(SubjectTrends)
	case platform.VoteCast:
		// The vote span is two integers of the discussion page, and the
		// tally moved the net-vote ranking.
		if cu := db.URLByID(e.URLID); cu != nil {
			s.refreshDiscussion(cu.URL, cu.ID)
		}
		s.cache.Invalidate(SubjectLeaderboard)
	case platform.URLSubmitted:
		// A just-registered URL enters the net-vote ranking at its
		// baseline, which can reorder the tail. No other cached page can
		// show it: invitation pages for unknown URLs are never cached,
		// and a zero-comment URL is on no trends or home listing.
		s.cache.Invalidate(SubjectLeaderboard)
	}
	// UserAdded, FollowAdded: no cached page lists users or follow edges
	// (home pages are keyed by username and a new user has none yet).
}

// Rebuild is the bulk-catch-up hook; a cache derives nothing — entries
// refill lazily from the store on each miss, and a Server starts with
// an empty cache over the store it watches (a replica re-bootstrap
// builds a fresh Server over the fresh DB, so no stale entry survives
// a swap).
func (eventInvalidator) Rebuild(db *platform.DB) {}

// allViewKeys enumerates every viewKey value, so a subject's cache
// entries can be dropped with exact deletes instead of a full-cache
// prefix scan.
var allViewKeys = [...]string{"00", "01", "10", "11"}

// invalidateSubject drops every session view of one cache subject
// ("home|<author>|" or "trends|").
func (s *Server) invalidateSubject(prefix string) {
	for _, vk := range allViewKeys {
		s.cache.Invalidate(prefix + vk)
	}
}

// refreshDiscussion folds a just-landed write (a vote, a posted
// comment) into every live cached view of one discussion page IN
// PLACE: each entry swaps in the fragment view's grown comment stream
// and fresh count and tally, re-read from the store under the cache
// shard lock, so whichever of two racing patches applies last reflects
// both writes and the page's escaped HTML is never discarded. Views
// with no live entry fall back to exact-key invalidation, which also
// discards any fill that raced the write — the entry is then rebuilt
// on the next request. Either way, a reader can never be
// served page state predating the write.
func (s *Server) refreshDiscussion(raw string, urlID ids.ObjectID) {
	for _, vk := range allViewKeys {
		key := DiscussionSubject(raw) + vk
		showNSFW, showOffensive := vk[0] == '1', vk[1] == '1'
		patched := s.cache.UpdateRev(key, func(p page, rev respcache.Rev) page {
			stream, count := s.db.CommentStream(urlID, showNSFW, showOffensive)
			// Adopt the fresh generation stamp and an uncomposed box: the
			// old ETag and pre-gzipped bytes die with the old generation,
			// atomically with the patch, so a client revalidating with the
			// stale ETag always gets the new body. The box inherits the old
			// generation's compressed stream when the new snapshot extends
			// the old one; composing (the appended rows' deflate included)
			// happens lazily on the next hit, never under the shard lock.
			box := &respBox{}
			if extends(stream, p.stream) {
				box.prev = p.resp.stream()
			}
			p.stream, p.count = stream, count
			p.ups, p.downs = s.db.Votes(urlID)
			p.rev, p.resp = rev, box
			return p
		})
		if !patched {
			s.cache.Invalidate(key)
		}
	}
}

// extends reports whether the comment-stream snapshot next continues
// prev: the same backing array, at least as long. The store's streams
// are append-only between rebuilds, and a rebuild or a growth
// reallocation starts a new array (platform.urlPage), so a shared first
// byte means next[:len(prev)] is prev byte for byte.
func extends(next, prev []byte) bool {
	return len(prev) > 0 && len(next) >= len(prev) && &next[0] == &prev[0]
}
