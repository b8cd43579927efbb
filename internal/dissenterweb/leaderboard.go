package dissenterweb

import "net/http"

// The vote leaderboard: the most net-upvoted comment pages, Figure 5's
// ordering, served from the store's write-maintained vote index
// (platform.DB.Leaderboard) — every vote already folded itself into
// the exact top-LeaderLimit in O(log #URLs), so a cache-miss render
// here is O(LeaderLimit) no matter how large the store has grown.
//
// Net votes do not depend on the session's shadow-overlay settings (a
// vote is a vote, there is no hidden-vote overlay), so unlike the
// discussion, home, and trends pages the leaderboard renders
// identically for every session and is cached under ONE exact key with
// no view suffix, SubjectLeaderboard (cachekeys.go, where every cache
// subject lives); coherence.go drops it on votes and URL registrations.

// leaderKey is SubjectLeaderboard pre-converted for the GetBytes probe.
var leaderKey = []byte(SubjectLeaderboard)

// handleLeaderboard renders the net-vote leaderboard.
func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, leaderKey, func() page {
		return page{simple: s.leaderboardBody()}
	})
}

func (s *Server) leaderboardBody() string {
	entries := s.db.Leaderboard()
	b := getBuf()
	defer putBuf(b)
	b.WriteString("<!DOCTYPE html><html><head><title>Dissenter Leaderboard</title></head><body>\n")
	b.WriteString("<h1>Top discussions by net votes</h1>\n")
	b.WriteString("<ol class=\"leaderboard\">\n")
	for _, e := range entries {
		b.WriteString(`<li class="leader" data-net="`)
		writeInt(b, e.Net())
		b.WriteString(`" data-up="`)
		writeInt(b, e.Ups)
		b.WriteString(`" data-down="`)
		writeInt(b, e.Downs)
		// trendRowFrag closes the open attribute and renders the
		// link+title remainder; CommentURL records are immutable, so the
		// memoized fragment is shared with the trends page.
		b.WriteString(s.trendRowFrag(e.URL))
	}
	b.WriteString("</ol>\n</body></html>\n")
	return b.String()
}
