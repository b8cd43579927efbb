package dissenterweb

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/urlkit"
)

// The live comment write path. The paper's measurement campaign ran
// against a growing platform — comments appeared between crawl passes
// (§3.2), which is what made the differential NSFW/offensive labeling a
// moving-target problem. POST /discussion/comment is the simulator-side
// source of that growth: a session-authenticated write that mints a
// comment-id and inserts through platform.DB.AddComment. It touches no
// cache: the store's event stream carries the insert (and the URL
// registration, when the address is new) to every Server's coherence
// view before AddComment returns (coherence.go).

// handlePostComment accepts a session-authenticated comment submission:
// form fields url (required), text (required), parent (optional
// comment-id for replies), and nsfw / offensive (optional boolean
// labels, the author-applied and platform-applied shadow flags).
// Posting to a URL the platform has never seen first registers it, the
// §2.1 "allows new users ... to make comments" behaviour. The response
// carries the minted comment-id as a data-comment-id attribute.
func (s *Server) handlePostComment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, "bad form", http.StatusBadRequest)
		return
	}
	raw := urlkit.Normalize(r.PostFormValue("url"))
	text := r.PostFormValue("text")
	if raw == "" || text == "" {
		http.Error(w, "url and text required", http.StatusBadRequest)
		return
	}
	sess := s.session(r)
	if sess.Username == "" {
		http.Error(w, "authentication required", http.StatusUnauthorized)
		return
	}
	author := s.db.UserByUsername(sess.Username)
	if author == nil || !author.HasDissenter {
		http.Error(w, "no Dissenter account for session", http.StatusForbidden)
		return
	}
	// Writes draw from the same per-URL budget as reads: the real
	// platform throttled by request, not by method (§3.2).
	if !s.rateLimit(w, "discussion:", raw) {
		return
	}
	cu := s.db.URLByString(raw)
	if cu == nil {
		cu, _ = s.db.SubmitURL(&platform.CommentURL{
			ID:        s.idgen.New(),
			URL:       raw,
			FirstSeen: time.Now().UTC().Truncate(time.Second),
		})
	}
	var parentID ids.ObjectID
	if p := r.PostFormValue("parent"); p != "" {
		pid, err := ids.Parse(p)
		if err != nil {
			http.Error(w, "bad parent id", http.StatusBadRequest)
			return
		}
		parent := s.db.CommentByID(pid)
		if parent == nil || parent.URLID != cu.ID {
			http.Error(w, "parent not on this page", http.StatusBadRequest)
			return
		}
		parentID = pid
	}
	id := s.idgen.New()
	s.db.AddComment(&platform.Comment{
		ID:        id,
		URLID:     cu.ID,
		AuthorID:  author.AuthorID,
		ParentID:  parentID,
		Text:      text,
		CreatedAt: id.Time(),
		NSFW:      formBool(r, "nsfw"),
		Offensive: formBool(r, "offensive"),
	})
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<div class="posted" data-comment-id="%s"></div>`+"\n", id)
}

// formBool interprets a submitted flag field ("1", "true", "on").
func formBool(r *http.Request, field string) bool {
	switch strings.ToLower(r.PostFormValue(field)) {
	case "1", "true", "on", "yes":
		return true
	}
	return false
}
