package dissenterweb

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"dissenter/internal/htmlx"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// newIsolatedServer builds a Server over a freshly generated private DB,
// for tests that mutate the store (votes, submissions) — serve-time
// writes must never leak into the shared out fixture and order-couple
// the suite.
func newIsolatedServer(t *testing.T, opts ...Option) (*Server, *httptest.Server, *synth.Output) {
	t.Helper()
	priv := synth.Generate(synth.NewConfig(1.0/512, 11))
	if len(opts) == 0 {
		opts = []Option{WithURLRateLimit(0, 0)}
	}
	s := NewServer(priv.DB, opts...)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv, priv
}

// cacheGet probes the response cache by exact key.
func (s *Server) cacheGet(key string) (page, bool) { return s.cache.GetBytes([]byte(key)) }

// busyURL returns a URL in o with at least one visible comment.
func busyURL(t *testing.T, o *synth.Output) *platform.CommentURL {
	t.Helper()
	for _, cu := range allURLs(o.DB) {
		for _, c := range o.DB.CommentsOnURL(cu.ID) {
			if visible(c, Session{}) {
				return cu
			}
		}
	}
	t.Fatal("no URL with visible comments")
	return nil
}

func TestResponseCacheServesRepeatFetches(t *testing.T) {
	s, srv := newTestServer(t)
	cu := busyURL(t, out)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	_, first := fetch(t, page, "")
	h0, _ := s.CacheStats()
	_, second := fetch(t, page, "")
	h1, _ := s.CacheStats()
	if second != first {
		t.Error("cached fetch rendered a different body")
	}
	if h1 != h0+1 {
		t.Errorf("cache hits went %d -> %d, want one new hit", h0, h1)
	}
}

func TestVoteInvalidatesDiscussionCache(t *testing.T) {
	_, srv, priv := newIsolatedServer(t)
	cu := busyURL(t, priv)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	upsOf := func(body string) int {
		tagged, ok := htmlx.Attr(body, "data-up")
		if !ok {
			t.Fatalf("no votes span in %q", body[:120])
		}
		n, err := strconv.Atoi(tagged)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	_, before := fetch(t, page, "")
	// Prime the cache, then vote: the cached rendering must not survive.
	resp, _ := fetch(t, srv.URL+"/discussion/vote?url="+url.QueryEscape(cu.URL)+"&dir=up", "")
	if resp.StatusCode != http.StatusOK { // redirect followed to the page
		t.Fatalf("vote status = %d", resp.StatusCode)
	}
	_, after := fetch(t, page, "")
	if got, want := upsOf(after), upsOf(before)+1; got != want {
		t.Errorf("ups after vote = %d, want %d (stale cache?)", got, want)
	}
}

func TestVoteValidation(t *testing.T) {
	_, srv := newTestServer(t)
	cu := busyURL(t, out)
	if resp, _ := fetch(t, srv.URL+"/discussion/vote?url="+url.QueryEscape(cu.URL)+"&dir=sideways", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad dir: status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := fetch(t, srv.URL+"/discussion/vote?url=https%3A%2F%2Fnever.submitted%2F&dir=up", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown url: status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := fetch(t, srv.URL+"/discussion/vote?dir=up", ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url: status = %d, want 400", resp.StatusCode)
	}
}

func TestCacheDoesNotLeakShadowOverlay(t *testing.T) {
	// A session that sees the shadow overlay must never share cache
	// entries with one that does not — even for the same URL.
	s, srv := newTestServer(t)
	s.RegisterSession("nsfw-cache-probe", Session{ShowNSFW: true, ShowOffensive: true})

	var hidden *platform.Comment
	for _, c := range allComments(out.DB) {
		if !visible(c, Session{}) {
			hidden = c
			break
		}
	}
	if hidden == nil {
		t.Skip("fixture has no hidden comments")
	}
	cu := out.DB.URLByID(hidden.URLID)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	// Warm the opted-in rendering first, so a key collision would serve
	// the overlay to the anonymous client below.
	_, optedIn := fetch(t, page, "nsfw-cache-probe")
	_, anon := fetch(t, page, "")
	if anon == optedIn {
		t.Fatal("anonymous fetch served the opted-in rendering")
	}
	if countTag(optedIn, hidden.ID.String()) == 0 {
		t.Error("opted-in session missing its hidden comment")
	}
	if countTag(anon, hidden.ID.String()) != 0 {
		t.Error("cached shadow overlay leaked to anonymous session")
	}
}

func countTag(body, commentID string) int {
	n := 0
	for _, div := range htmlx.FindTags(body, "div") {
		if id, ok := htmlx.Attr(div.Raw, "data-comment-id"); ok && id == commentID {
			n++
		}
	}
	return n
}
