package dissenterweb

import (
	"html"
	"net/http"
	"net/url"
	"time"

	"dissenter/internal/platform"
	"dissenter/internal/urlkit"
)

// Gab Trends (§2.1): the news-aggregation portal Gab deployed in October
// 2019 as the second access path to Dissenter comment threads. The
// /trends page lists the most-discussed URLs; the /discussion/begin
// endpoint accepts a NEW URL submission — "if the URL is new to the
// Dissenter and Gab Trends system, this page contains no comments, but
// allows new users that navigate to it to make comments about this URL".
// Submission is a mutable surface of the simulator: a submitted URL is
// assigned a fresh commenturl-id on the spot and inserted straight into
// the sharded platform store, which is also what makes the §6
// covert-channel observation live — any string becomes an addressable
// comment thread. Voting (/discussion/vote) is the second mutable
// surface; tallies accumulate in the store's sharded vote index. The
// third is the live comment write path (POST /discussion/comment,
// comment.go), whose inserts reorder this page's ranking. None of the
// three handlers touches the response cache; coherence.go does, from
// the store's event stream.

// handleTrends renders the Gab Trends homepage: the most-commented URLs
// with their titles and comment counts, newest first among ties.
//
// The ranking is served from the store's write-maintained trend index
// (platform.DB.TopTrends): every AddComment already folded itself into
// the per-view top-50 in O(1), so a cache-miss render here is
// O(TrendLimit) — it never scans the URL table or counts a comment
// page, no matter how large the store has grown. That is what keeps
// the portal cheap under the §3.2 moving-target regime, where every
// posted comment invalidates every cached trends view.
func (s *Server) handleTrends(w http.ResponseWriter, r *http.Request) {
	sess := s.session(r)
	var kb [16]byte
	s.serveCached(w, r, appendViewKey(append(kb[:0], SubjectTrends...), sess), func() page {
		return page{simple: s.trendsBody(sess)}
	})
}

func (s *Server) trendsBody(sess Session) string {
	entries := s.db.TopTrends(sess.ShowNSFW, sess.ShowOffensive)
	b := getBuf()
	defer putBuf(b)
	b.WriteString("<!DOCTYPE html><html><head><title>Gab Trends</title></head><body>\n")
	b.WriteString("<h1>Trending on Dissenter</h1>\n")
	b.WriteString(`<form action="/discussion/begin" method="get">` +
		`<input name="url" placeholder="Submit any URL"/><input type="submit" value="Dissent"/></form>` + "\n")
	b.WriteString("<ol class=\"trends\">\n")
	for _, e := range entries {
		b.WriteString(`<li class="trend" data-comments="`)
		writeInt(b, e.Count)
		b.WriteString(s.trendRowFrag(e.URL))
	}
	b.WriteString("</ol>\n</body></html>\n")
	return b.String()
}

// trendRowFrag returns the per-URL remainder of a trends row — the
// query-escaped link and HTML-escaped title after the comment count.
// CommentURL records are immutable, so the fragment is computed once
// per URL that ever trends and memoized; only the count is rendered
// per request.
func (s *Server) trendRowFrag(cu *platform.CommentURL) string {
	return s.trendFrags.get(cu.ID, func() string {
		title := cu.Title
		if title == "" {
			title = cu.URL
		}
		return `"><a href="/discussion?url=` + url.QueryEscape(cu.URL) + `">` +
			html.EscapeString(title) + "</a></li>\n"
	})
}

// handleBegin accepts a URL submission and redirects to its comment
// page, minting a commenturl-id and inserting the record into the
// platform store when the URL is new to the system.
func (s *Server) handleBegin(w http.ResponseWriter, r *http.Request) {
	raw := urlkit.Normalize(r.URL.Query().Get("url"))
	if raw == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	if s.db.URLByString(raw) == nil {
		s.db.SubmitURL(&platform.CommentURL{
			ID:        s.idgen.New(),
			URL:       raw,
			FirstSeen: time.Now().UTC().Truncate(time.Second),
		})
	}
	http.Redirect(w, r, "/discussion?url="+url.QueryEscape(raw), http.StatusFound)
}

// handleVote records an up/down vote for a URL's comment page and
// redirects to it; the page already shows the new tally.
func (s *Server) handleVote(w http.ResponseWriter, r *http.Request) {
	raw := urlkit.Normalize(r.URL.Query().Get("url"))
	if raw == "" {
		http.Error(w, "missing url", http.StatusBadRequest)
		return
	}
	cu := s.db.URLByString(raw)
	if cu == nil {
		http.NotFound(w, r)
		return
	}
	var ups, downs int
	switch r.URL.Query().Get("dir") {
	case "up":
		ups = 1
	case "down":
		downs = 1
	default:
		http.Error(w, "dir must be up or down", http.StatusBadRequest)
		return
	}
	s.db.Vote(cu.ID, ups, downs)
	http.Redirect(w, r, "/discussion?url="+url.QueryEscape(raw), http.StatusFound)
}
