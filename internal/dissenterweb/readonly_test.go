package dissenterweb

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"dissenter/internal/htmlx"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

// TestReadOnlyRefusesWrites pins the replica-serving contract: every
// mutating endpoint answers 403 and performs no write; read endpoints
// are unaffected.
func TestReadOnlyRefusesWrites(t *testing.T) {
	_, srv, priv := newIsolatedServer(t, ReadOnly(), WithURLRateLimit(0, 0))
	cu := busyURL(t, priv)
	before := priv.DB.EventSeq()

	for _, target := range []string{
		"/discussion/begin?url=" + url.QueryEscape("https://readonly.test/new"),
		"/discussion/vote?url=" + url.QueryEscape(cu.URL) + "&dir=up",
	} {
		resp, _ := fetch(t, srv.URL+target, "")
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("GET %s = %d, want 403", target, resp.StatusCode)
		}
	}
	resp, err := http.PostForm(srv.URL+"/discussion/comment",
		url.Values{"url": {cu.URL}, "text": {"nope"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("POST /discussion/comment = %d, want 403", resp.StatusCode)
	}
	if got := priv.DB.EventSeq(); got != before {
		t.Fatalf("read-only server performed %d writes", got-before)
	}
	if resp, _ := fetch(t, srv.URL+"/trends", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("read path broke: /trends = %d", resp.StatusCode)
	}
}

// TestEventInvalidatorCoherence pins the replica cache-coherence loop:
// with the server's EventInvalidator registered as a store view,
// writes applied DIRECTLY to the store (the replica situation — the
// stream's ApplyEvent, not this server's handlers) must update every
// cached page exactly as the handlers would have.
func TestEventInvalidatorCoherence(t *testing.T) {
	_, srv, priv := newIsolatedServer(t, ReadOnly(), WithURLRateLimit(0, 0))
	cu := busyURL(t, priv)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	attrInt := func(body, attr string) int {
		v, ok := htmlx.Attr(body, attr)
		if !ok {
			t.Fatalf("no %s attribute in page", attr)
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	// Vote: the cached discussion tally must move without a handler run.
	_, body := fetch(t, page, "")
	ups := attrInt(body, "data-up")
	priv.DB.Vote(cu.ID, 1, 0)
	_, body = fetch(t, page, "")
	if got := attrInt(body, "data-up"); got != ups+1 {
		t.Fatalf("cached tally shows %d ups after replicated vote, want %d", got, ups+1)
	}

	// Comment: cached discussion count and body must grow, and the
	// author's cached home page must list the URL the author now
	// commented on.
	var author *platform.User
	for _, u := range priv.DB.ActiveUsers() {
		author = u
		break
	}
	if author == nil {
		t.Fatal("no active user")
	}
	home := srv.URL + "/user/" + author.Username
	_, homeBefore := fetch(t, home, "")

	const freshURL = "https://readonly.test/invalidate"
	cpage := srv.URL + "/discussion?url=" + url.QueryEscape(freshURL)
	_, cbody := fetch(t, cpage, "")
	if !strings.Contains(cbody, "No comments yet") {
		t.Fatalf("expected empty page for unseen URL, got %q", cbody[:80])
	}
	target, _ := priv.DB.SubmitURL(&platform.CommentURL{
		ID:        ids.NewGenerator(0xCAFE).New(),
		URL:       freshURL,
		FirstSeen: time.Now().UTC().Truncate(time.Second),
	})
	priv.DB.AddComment(&platform.Comment{
		ID: ids.NewGenerator(0xCAFE).NewAt(time.Now()), URLID: target.ID,
		AuthorID: author.AuthorID, Text: "replicated comment lands",
		CreatedAt: time.Now().UTC(),
	})
	_, cbody = fetch(t, cpage, "")
	if !strings.Contains(cbody, "replicated comment lands") {
		t.Fatal("cached discussion page missing replicated comment")
	}
	_, homeAfter := fetch(t, home, "")
	if homeAfter == homeBefore {
		t.Fatal("cached home page survived the author's replicated comment")
	}
	if !strings.Contains(homeAfter, url.QueryEscape(target.URL)) {
		t.Fatal("refilled home page does not list the new commented URL")
	}

	// The leaderboard must re-rank after a replicated vote.
	lb := srv.URL + "/leaderboard"
	_, lbBefore := fetch(t, lb, "")
	priv.DB.Vote(cu.ID, 250, 0)
	_, lbAfter := fetch(t, lb, "")
	if lbBefore == lbAfter {
		t.Fatal("cached leaderboard survived a replicated 250-up vote")
	}
}
