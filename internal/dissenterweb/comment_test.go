package dissenterweb

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"dissenter/internal/htmlx"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

// registerPoster issues a posting session for an active Dissenter user
// of the fixture and returns that user.
func registerPoster(t *testing.T, s *Server, o *synth.Output, token string) *platform.User {
	t.Helper()
	users := o.DB.ActiveUsers()
	if len(users) == 0 {
		t.Fatal("fixture has no active users")
	}
	u := users[0]
	s.RegisterSession(token, Session{Username: u.Username})
	return u
}

// postComment submits the form to POST /discussion/comment.
func postComment(t *testing.T, srv *httptest.Server, token string, form url.Values) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/discussion/comment", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if token != "" {
		req.AddCookie(&http.Cookie{Name: "session", Value: token})
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

// mustPost posts and returns the minted comment-id.
func mustPost(t *testing.T, srv *httptest.Server, token string, form url.Values) string {
	t.Helper()
	resp, body := postComment(t, srv, token, form)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post status = %d, body %q", resp.StatusCode, body)
	}
	id, ok := htmlx.Attr(body, "data-comment-id")
	if !ok || len(id) != 24 {
		t.Fatalf("post response lacks comment-id: %q", body)
	}
	return id
}

// urlNotCommentedBy finds a URL with visible comments that the author
// has not commented on, so a post there changes their home listing.
func urlNotCommentedBy(t *testing.T, o *synth.Output, author *platform.User) *platform.CommentURL {
	t.Helper()
	mine := map[string]bool{}
	for _, cu := range urlsCommentedBy(o.DB, author.AuthorID) {
		mine[cu.URL] = true
	}
	for _, cu := range allURLs(o.DB) {
		if len(o.DB.CommentsOnURL(cu.ID)) > 0 && !mine[cu.URL] {
			return cu
		}
	}
	t.Fatal("no suitable target URL")
	return nil
}

func TestPostCommentVisibleOnNextRender(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	poster := registerPoster(t, s, priv, "poster-tok")
	cu := urlNotCommentedBy(t, priv, poster)
	discussion := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)
	home := srv.URL + "/user/" + poster.Username

	// Warm all three renderings so stale cache entries would betray a
	// dropped invalidation (default TTL far exceeds the test).
	_, before := fetch(t, discussion, "")
	fetch(t, home, "")
	fetch(t, srv.URL+"/trends", "")

	id := mustPost(t, srv, "poster-tok", url.Values{
		"url": {cu.URL}, "text": {"a live comment between crawl passes"},
	})

	// The very next render of the discussion page must carry the comment.
	_, after := fetch(t, discussion, "")
	if !strings.Contains(after, `data-comment-id="`+id+`"`) {
		t.Error("posted comment missing from next discussion render (stale cache?)")
	}
	if strings.Contains(before, `data-comment-id="`+id+`"`) {
		t.Error("comment present before posting?")
	}
	// The author's home page must list the newly commented URL.
	_, homeBody := fetch(t, home, "")
	if !strings.Contains(homeBody, url.QueryEscape(cu.URL)) {
		t.Error("author home page missing newly commented URL (stale cache?)")
	}
	// The comment resolves on its single-comment page.
	resp, _ := fetch(t, srv.URL+"/comment/"+id, "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("single-comment page status = %d", resp.StatusCode)
	}
}

func TestPostCommentMovesTrendsRanking(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerPoster(t, s, priv, "poster-tok")
	cu := busyURL(t, priv)

	// Warm the trends cache, then post enough comments to make cu the
	// top trend. If the trends invalidation were dropped, the cached
	// pre-post ranking would still be served.
	_, before := fetch(t, srv.URL+"/trends", "")
	top := 0
	for _, other := range allURLs(priv.DB) {
		n := 0
		for _, c := range priv.DB.CommentsOnURL(other.ID) {
			if visible(c, Session{}) {
				n++
			}
		}
		if n > top {
			top = n
		}
	}
	have := 0
	for _, c := range priv.DB.CommentsOnURL(cu.ID) {
		if visible(c, Session{}) {
			have++
		}
	}
	for i := have; i <= top; i++ {
		mustPost(t, srv, "poster-tok", url.Values{
			"url": {cu.URL}, "text": {fmt.Sprintf("pile-on %d", i)},
		})
	}
	_, after := fetch(t, srv.URL+"/trends", "")
	items := htmlx.FindTags(after, "li")
	if len(items) == 0 {
		t.Fatal("no trends entries")
	}
	if !strings.Contains(items[0].Text, url.QueryEscape(cu.URL)) {
		t.Errorf("top trend is not the piled-on URL:\n%s", items[0].Text)
	}
	if after == before {
		t.Error("trends page unchanged after ranking flip (stale cache?)")
	}
}

// TestPostCommentCoherenceContract pins the cache-coherence contract:
// posting PATCHES every live session view of the discussion page in
// place (the entry survives and carries the new comment), drops every
// view of the author's home page and of trends — and touches nothing
// else.
func TestPostCommentCoherenceContract(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	poster := registerPoster(t, s, priv, "poster-tok")
	target := urlNotCommentedBy(t, priv, poster)

	// A control discussion and a control profile that must survive.
	var other *platform.CommentURL
	for _, cu := range allURLs(priv.DB) {
		if cu.ID != target.ID && len(priv.DB.CommentsOnURL(cu.ID)) > 0 {
			other = cu
			break
		}
	}
	var otherUser *platform.User
	for _, u := range priv.DB.ActiveUsers() {
		if u.Username != poster.Username {
			otherUser = u
			break
		}
	}
	if other == nil || otherUser == nil {
		t.Fatal("fixture too small for control subjects")
	}

	// One session per view key.
	viewTokens := map[string]string{"00": "", "10": "v10", "01": "v01", "11": "v11"}
	s.RegisterSession("v10", Session{ShowNSFW: true})
	s.RegisterSession("v01", Session{ShowOffensive: true})
	s.RegisterSession("v11", Session{ShowNSFW: true, ShowOffensive: true})

	pages := []string{
		srv.URL + "/discussion?url=" + url.QueryEscape(target.URL),
		srv.URL + "/discussion?url=" + url.QueryEscape(other.URL),
		srv.URL + "/user/" + poster.Username,
		srv.URL + "/user/" + otherUser.Username,
		srv.URL + "/trends",
	}
	for _, page := range pages {
		for _, tok := range viewTokens {
			fetch(t, page, tok)
		}
	}

	const patched, dropped, kept = "patched", "dropped", "kept"
	subjects := []struct {
		prefix string
		want   string
	}{
		{DiscussionSubject(target.URL), patched},
		{HomeSubject(poster.Username), dropped},
		{SubjectTrends, dropped},
		{DiscussionSubject(other.URL), kept},
		{HomeSubject(otherUser.Username), kept},
	}
	// Every view of every subject must be warm before the post.
	for _, sub := range subjects {
		for vk := range viewTokens {
			if _, ok := s.cacheGet(sub.prefix + vk); !ok {
				t.Fatalf("key %q not warmed", sub.prefix+vk)
			}
		}
	}

	id := mustPost(t, srv, "poster-tok", url.Values{
		"url": {target.URL}, "text": {"coherence probe"},
	})

	for _, sub := range subjects {
		for vk := range viewTokens {
			key := sub.prefix + vk
			p, ok := s.cacheGet(key)
			switch sub.want {
			case dropped:
				if ok {
					t.Errorf("key %q survived the post (dropped invalidation)", key)
				}
			case kept:
				if !ok {
					t.Errorf("key %q was evicted by an unrelated post", key)
				}
			case patched:
				if !ok {
					t.Errorf("key %q was discarded; the post should have patched it in place", key)
					continue
				}
				// The surviving entry must already carry the new comment
				// (it is plain, so every view shows it) and the grown count.
				if !strings.Contains(string(p.stream), `data-comment-id="`+id+`"`) {
					t.Errorf("key %q was not patched with the posted comment", key)
				}
			}
		}
	}
}

func TestPostCommentParentReply(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerPoster(t, s, priv, "poster-tok")
	cu := busyURL(t, priv)

	parent := mustPost(t, srv, "poster-tok", url.Values{
		"url": {cu.URL}, "text": {"parent comment"},
	})
	reply := mustPost(t, srv, "poster-tok", url.Values{
		"url": {cu.URL}, "text": {"the reply"}, "parent": {parent},
	})
	_, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(cu.URL), "")
	want := `data-comment-id="` + reply + `" data-author-id`
	if !strings.Contains(body, want) {
		t.Fatal("reply missing from discussion page")
	}
	frag, ok := htmlx.Between(body, reply, "</div>")
	if !ok || !strings.Contains(frag, `data-parent-id="`+parent+`"`) {
		t.Errorf("reply does not carry its parent id: %q", frag)
	}

	// A parent on a different page is rejected.
	var elsewhere *platform.Comment
	for _, c := range allComments(priv.DB) {
		if c.URLID != cu.ID {
			elsewhere = c
			break
		}
	}
	resp, _ := postComment(t, srv, "poster-tok", url.Values{
		"url": {cu.URL}, "text": {"cross-page reply"}, "parent": {elsewhere.ID.String()},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cross-page parent status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postComment(t, srv, "poster-tok", url.Values{
		"url": {cu.URL}, "text": {"bad parent"}, "parent": {"zzz"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed parent status = %d, want 400", resp.StatusCode)
	}
}

func TestPostCommentShadowFlagsFromSession(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerPoster(t, s, priv, "poster-tok")
	s.RegisterSession("nsfw-view", Session{ShowNSFW: true})
	cu := busyURL(t, priv)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	id := mustPost(t, srv, "poster-tok", url.Values{
		"url": {cu.URL}, "text": {"shadow content"}, "nsfw": {"1"},
	})
	rendered := `data-comment-id="` + id + `"`
	_, anon := fetch(t, page, "")
	if strings.Contains(anon, rendered) {
		t.Error("freshly posted NSFW comment visible anonymously")
	}
	_, opted := fetch(t, page, "nsfw-view")
	if !strings.Contains(opted, rendered) {
		t.Error("freshly posted NSFW comment missing for opted-in session")
	}
	resp, _ := fetch(t, srv.URL+"/comment/"+id, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("hidden comment page status = %d anonymously, want 404", resp.StatusCode)
	}
}

func TestPostCommentAuthAndValidation(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerPoster(t, s, priv, "poster-tok")
	s.RegisterSession("ghost-tok", Session{Username: "no-such-account-ever"})
	cu := busyURL(t, priv)
	form := url.Values{"url": {cu.URL}, "text": {"hello"}}

	if resp, _ := postComment(t, srv, "", form); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("anonymous post status = %d, want 401", resp.StatusCode)
	}
	if resp, _ := postComment(t, srv, "never-registered", form); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown token status = %d, want 401", resp.StatusCode)
	}
	if resp, _ := postComment(t, srv, "ghost-tok", form); resp.StatusCode != http.StatusForbidden {
		t.Errorf("ghost account status = %d, want 403", resp.StatusCode)
	}
	if resp, _ := postComment(t, srv, "poster-tok", url.Values{"text": {"x"}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing url status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := postComment(t, srv, "poster-tok", url.Values{"url": {cu.URL}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing text status = %d, want 400", resp.StatusCode)
	}
	resp, _ := fetch(t, srv.URL+"/discussion/comment", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

func TestPostCommentMintsUnknownURL(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	poster := registerPoster(t, s, priv, "poster-tok")
	novel := "https://fresh.example/live/thread-1"

	id := mustPost(t, srv, "poster-tok", url.Values{
		"url": {novel}, "text": {"first!"},
	})
	cu := priv.DB.URLByString(novel)
	if cu == nil {
		t.Fatal("posting to an unknown URL did not register it")
	}
	_, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(novel), "")
	if !strings.Contains(body, `data-comment-id="`+id+`"`) {
		t.Error("comment missing from freshly minted page")
	}
	_, home := fetch(t, srv.URL+"/user/"+poster.Username, "")
	if !strings.Contains(home, url.QueryEscape(novel)) {
		t.Error("author home page missing the fresh URL")
	}
}

func TestPostCommentSharesReadRateLimit(t *testing.T) {
	s, srv, priv := newIsolatedServer(t, WithURLRateLimit(3, time.Hour))
	registerPoster(t, s, priv, "poster-tok")
	cu := busyURL(t, priv)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	fetch(t, page, "")
	fetch(t, page, "")
	mustPost(t, srv, "poster-tok", url.Values{"url": {cu.URL}, "text": {"third hit"}})
	if resp, _ := fetch(t, page, ""); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("4th request (read) status = %d, want 429: writes must share the budget", resp.StatusCode)
	}
	if resp, _ := postComment(t, srv, "poster-tok", url.Values{"url": {cu.URL}, "text": {"over"}}); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("5th request (write) status = %d, want 429", resp.StatusCode)
	}
}

// TestPostCommentConcurrentPostersAndReaders races live writes against
// cached reads on one URL; the final render must agree with the store.
func TestPostCommentConcurrentPostersAndReaders(t *testing.T) {
	s, srv, priv := newIsolatedServer(t)
	registerPoster(t, s, priv, "poster-tok")
	cu := busyURL(t, priv)
	page := srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL)

	const posters, perPoster, readers = 4, 12, 4
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPoster; i++ {
				// t.Errorf, not mustPost: Fatal must stay on the test
				// goroutine.
				resp, body := postComment(t, srv, "poster-tok", url.Values{
					"url": {cu.URL}, "text": {fmt.Sprintf("poster %d comment %d", p, i)},
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("racing post status = %d, body %q", resp.StatusCode, body)
					return
				}
			}
		}(p)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*perPoster; i++ {
				fetch(t, page, "")
			}
		}()
	}
	wg.Wait()

	shown := 0
	for _, c := range priv.DB.CommentsOnURL(cu.ID) {
		if visible(c, Session{}) {
			shown++
		}
	}
	_, body := fetch(t, page, "")
	rendered := 0
	for _, div := range htmlx.FindTags(body, "div") {
		if _, ok := htmlx.Attr(div.Raw, "data-comment-id"); ok {
			rendered++
		}
	}
	if rendered != shown {
		t.Errorf("final render shows %d comments, store holds %d visible (stale cache survived the race)", rendered, shown)
	}
}

func TestRateLimitMapEvictsExpiredWindows(t *testing.T) {
	window := 50 * time.Millisecond
	s, srv := newTestServer(t, WithURLRateLimit(5, window))
	for i := 0; i < 150; i++ {
		fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(fmt.Sprintf("https://sweep.example/%d", i)), "")
	}
	if n := s.rateLimitEntries(); n == 0 {
		t.Fatal("no rate-limit windows recorded")
	}
	time.Sleep(window + 20*time.Millisecond)
	// The next request kicks off the background sweep; poll until it
	// lands (it runs off the request path, so the response returning
	// does not mean the map has been compacted yet).
	fetch(t, srv.URL+"/discussion?url="+url.QueryEscape("https://sweep.example/after"), "")
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := s.rateLimitEntries()
		if n <= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("rate-limit map still holds %d entries after the window lapsed, want <= 2", n)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
}
