package dissenterweb

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"dissenter/internal/htmlx"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

var out = synth.Generate(synth.NewConfig(1.0/512, 6))

func newTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	if len(opts) == 0 {
		opts = []Option{WithURLRateLimit(0, 0)}
	}
	s := NewServer(out.DB, opts...)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv
}

func fetch(t *testing.T, rawurl, session string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawurl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != "" {
		req.AddCookie(&http.Cookie{Name: "session", Value: session})
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func someDissenterUser(t *testing.T) *platform.User {
	t.Helper()
	for _, u := range out.DB.ActiveUsers() {
		return u
	}
	t.Fatal("no active users")
	return nil
}

func TestHomePageSizeSideChannel(t *testing.T) {
	_, srv := newTestServer(t)
	u := someDissenterUser(t)
	resp, body := fetch(t, srv.URL+"/user/"+u.Username, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(body) < 10_000 {
		t.Errorf("existing account page is %d bytes, want >= 10kB", len(body))
	}
	resp, body = fetch(t, srv.URL+"/user/no-such-user-ever", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing user status = %d", resp.StatusCode)
	}
	if len(body) > 400 {
		t.Errorf("missing account page is %d bytes, want ~150", len(body))
	}
}

func TestNonDissenterGabUserHasNoHomePage(t *testing.T) {
	_, srv := newTestServer(t)
	for _, u := range allUsers(out.DB) {
		if !u.HasDissenter {
			resp, _ := fetch(t, srv.URL+"/user/"+u.Username, "")
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("Gab-only user %q has a Dissenter page", u.Username)
			}
			return
		}
	}
}

func TestHomePageListsCommentedURLs(t *testing.T) {
	_, srv := newTestServer(t)
	u := someDissenterUser(t)
	_, body := fetch(t, srv.URL+"/user/"+u.Username, "")
	items := htmlx.FindTags(body, "li")
	urls := urlsCommentedBy(out.DB, u.AuthorID)
	if len(items) == 0 {
		t.Fatal("no commented URLs listed")
	}
	if len(items) > len(urls) {
		t.Errorf("listed %d URLs, ground truth has %d", len(items), len(urls))
	}
	if got, _ := htmlx.Attr(body, "data-author-id"); got != u.AuthorID.String() {
		t.Errorf("author-id = %q, want %q", got, u.AuthorID)
	}
}

func TestDiscussionPage(t *testing.T) {
	_, srv := newTestServer(t)
	// Pick a URL with several comments.
	var target *platform.CommentURL
	for _, cu := range allURLs(out.DB) {
		if len(out.DB.CommentsOnURL(cu.ID)) >= 3 {
			target = cu
			break
		}
	}
	if target == nil {
		t.Fatal("no multi-comment URL")
	}
	resp, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(target.URL), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got, _ := htmlx.Attr(body, "data-commenturl-id"); got != target.ID.String() {
		t.Errorf("commenturl-id = %q, want %q", got, target.ID)
	}
	comments := htmlx.FindTags(body, "div")
	visibleGroundTruth := 0
	for _, c := range out.DB.CommentsOnURL(target.ID) {
		if visible(c, Session{}) {
			visibleGroundTruth++
		}
	}
	// First div is the discussion header.
	if len(comments)-1 != visibleGroundTruth {
		t.Errorf("rendered %d comments, want %d", len(comments)-1, visibleGroundTruth)
	}
}

func TestDiscussionUnknownURL(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape("https://example.com/never-seen"), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(body, "No comments yet") {
		t.Error("unknown URL should render the empty invitation page")
	}
	resp, _ = fetch(t, srv.URL+"/discussion", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url param status = %d", resp.StatusCode)
	}
}

func hiddenComment(t *testing.T, nsfw bool) *platform.Comment {
	t.Helper()
	for _, c := range allComments(out.DB) {
		if nsfw && c.NSFW && !c.Offensive {
			return c
		}
		if !nsfw && c.Offensive && !c.NSFW {
			return c
		}
	}
	t.Skip("no suitable hidden comment at this scale")
	return nil
}

func TestShadowOverlayGating(t *testing.T) {
	s, srv := newTestServer(t)
	s.RegisterSession("nsfw-tok", Session{Username: "probe1", ShowNSFW: true})
	s.RegisterSession("off-tok", Session{Username: "probe2", ShowOffensive: true})

	nc := hiddenComment(t, true)
	cu := out.DB.URLByID(nc.URLID)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	// The hidden comment must not be RENDERED anonymously; its ID may
	// still leak as a reply's data-parent-id attribute (a dangling
	// reference the crawler tolerates).
	rendered := `data-comment-id="` + nc.ID.String() + `"`
	_, anon := fetch(t, page, "")
	if strings.Contains(anon, rendered) {
		t.Error("NSFW comment visible to anonymous viewer")
	}
	_, authed := fetch(t, page, "nsfw-tok")
	if !strings.Contains(authed, rendered) {
		t.Error("NSFW comment missing for opted-in session")
	}
	// The rendered comment body must carry no NSFW marker (§3.2: "no
	// specific flag or other identifier present in the document body").
	frag, _ := htmlx.Between(authed, nc.ID.String(), "</div>")
	if strings.Contains(strings.ToLower(frag), "nsfw") {
		t.Error("NSFW marker leaked into document body")
	}
	// The NSFW session must NOT see offensive-only comments.
	oc := hiddenComment(t, false)
	ocu := out.DB.URLByID(oc.URLID)
	renderedOff := `data-comment-id="` + oc.ID.String() + `"`
	_, nsfwView := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(ocu.URL), "nsfw-tok")
	if strings.Contains(nsfwView, renderedOff) {
		t.Error("offensive comment visible to NSFW-only session")
	}
	_, offView := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(ocu.URL), "off-tok")
	if !strings.Contains(offView, renderedOff) {
		t.Error("offensive comment missing for offensive-enabled session")
	}
}

func TestCommentPageHiddenMetadata(t *testing.T) {
	_, srv := newTestServer(t)
	var c *platform.Comment
	for _, cand := range allComments(out.DB) {
		if visible(cand, Session{}) {
			c = cand
			break
		}
	}
	resp, body := fetch(t, srv.URL+"/comment/"+c.ID.String(), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	blob, ok := htmlx.CommentedOutJS(body, "commentAuthor")
	if !ok {
		t.Fatal("commentAuthor blob missing")
	}
	author := out.DB.UserByAuthorID(c.AuthorID)
	if !strings.Contains(blob, author.Username) {
		t.Error("hidden metadata lacks username")
	}
	if !strings.Contains(blob, `"canLogin"`) || !strings.Contains(blob, `"nsfw"`) {
		t.Error("hidden metadata lacks permissions/view filters")
	}
}

func TestCommentPageHiddenCommentGated(t *testing.T) {
	s, srv := newTestServer(t)
	s.RegisterSession("nsfw-tok", Session{ShowNSFW: true})
	nc := hiddenComment(t, true)
	resp, _ := fetch(t, srv.URL+"/comment/"+nc.ID.String(), "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("hidden comment page status = %d for anonymous", resp.StatusCode)
	}
	resp, _ = fetch(t, srv.URL+"/comment/"+nc.ID.String(), "nsfw-tok")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("hidden comment page status = %d for opted-in", resp.StatusCode)
	}
}

func TestCommentPageBadID(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := fetch(t, srv.URL+"/comment/zzz", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("bad id status = %d", resp.StatusCode)
	}
	resp, _ = fetch(t, srv.URL+"/comment/aaaaaaaaaaaaaaaaaaaaaaaa", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status = %d", resp.StatusCode)
	}
}

func TestPerURLRateLimit(t *testing.T) {
	_, srv := newTestServer(t, WithURLRateLimit(3, time.Hour))
	page := srv.URL + "/discussion?url=" + url.QueryEscape(allURLs(out.DB)[0].URL)
	for i := 0; i < 3; i++ {
		resp, _ := fetch(t, page, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d status = %d", i, resp.StatusCode)
		}
	}
	resp, _ := fetch(t, page, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("4th request status = %d, want 429", resp.StatusCode)
	}
	// A different URL is unaffected: the limit is per-URL (§3.2).
	other := srv.URL + "/discussion?url=" + url.QueryEscape(allURLs(out.DB)[1].URL)
	resp, _ = fetch(t, other, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("other URL status = %d", resp.StatusCode)
	}
}

func TestRepliesOnCommentPage(t *testing.T) {
	_, srv := newTestServer(t)
	var parent *platform.Comment
	replies := 0
	for _, c := range allComments(out.DB) {
		if c.IsReply() && visible(c, Session{}) {
			p := out.DB.CommentByID(c.ParentID)
			if p != nil && visible(p, Session{}) {
				parent = p
				break
			}
		}
	}
	if parent == nil {
		t.Skip("no visible reply pairs")
	}
	for _, c := range out.DB.CommentsOnURL(parent.URLID) {
		if c.ParentID == parent.ID && visible(c, Session{}) {
			replies++
		}
	}
	_, body := fetch(t, srv.URL+"/comment/"+parent.ID.String(), "")
	got := len(htmlx.FindTags(body, "div")) - 1 // minus the comment itself
	if got != replies {
		t.Errorf("rendered %d replies, want %d", got, replies)
	}
}

// TestMountsReachHandlers walks the mount list the way
// cmd/dissenter-platform does — a ServeMux with the Server under each
// pattern (which also rejects a malformed or duplicated pattern) — and
// asserts every pattern lands in one of ServeHTTP's cases rather than
// its 404 default. Subtree patterns whose handler 404s on an unknown
// subject are probed with a real one.
func TestMountsReachHandlers(t *testing.T) {
	s := NewServer(out.DB, WithURLRateLimit(0, 0))
	mux := http.NewServeMux()
	for _, pattern := range Mounts {
		mux.Handle(pattern, s)
	}
	subject := map[string]string{"/user/": someDissenterUser(t).Username}
	for _, c := range allComments(out.DB) {
		if visible(c, Session{}) {
			subject["/comment/"] = c.ID.String()
			break
		}
	}
	for _, pattern := range Mounts {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, pattern+subject[pattern], nil))
		if rec.Code == http.StatusNotFound {
			t.Errorf("%s: mounted, but ServeHTTP routes it nowhere", pattern)
		}
	}
}
