package dissenterweb

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"dissenter/internal/htmlx"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
)

func TestTrendsHomepage(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := fetch(t, srv.URL+"/trends", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	items := htmlx.FindTags(body, "li")
	if len(items) == 0 {
		t.Fatal("no trending entries")
	}
	// Entries must be sorted by visible comment count, descending.
	var counts []int
	for _, li := range items {
		raw, ok := htmlx.Attr(li.Raw, "data-comments")
		if !ok {
			t.Fatalf("entry lacks data-comments: %q", li.Raw)
		}
		n, err := strconv.Atoi(raw)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, n)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("trends not sorted: %v", counts)
		}
	}
	// The top trend should agree with ground truth's busiest page.
	best := 0
	for _, cu := range allURLs(out.DB) {
		shown := 0
		for _, c := range out.DB.CommentsOnURL(cu.ID) {
			if visible(c, Session{}) {
				shown++
			}
		}
		if shown > best {
			best = shown
		}
	}
	if counts[0] != best {
		t.Errorf("top trend has %d comments, ground truth max %d", counts[0], best)
	}
}

func TestSubmitNewURL(t *testing.T) {
	_, srv, _ := newIsolatedServer(t)
	novel := "https://example.org/breaking/totally-new-story"

	// Before submission: the invitation page, no commenturl-id.
	_, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(novel), "")
	if !strings.Contains(body, "No comments yet") {
		t.Fatal("unsubmitted URL should render invitation")
	}

	// Submission redirects to the (now registered) comment page.
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/discussion/begin?url=" + url.QueryEscape(novel))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusFound {
		t.Fatalf("begin status = %d, want 302", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.Contains(loc, url.QueryEscape(novel)) {
		t.Errorf("redirect location = %q", loc)
	}

	// After submission: a real comment page with a commenturl-id and zero
	// comments ("this page contains no comments, but allows new users ...
	// to make comments", §2.1).
	_, body = fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(novel), "")
	id, ok := htmlx.Attr(body, "data-commenturl-id")
	if !ok || len(id) != 24 {
		t.Fatalf("submitted URL lacks commenturl-id: %q", id)
	}
	// Resubmission is idempotent: same id.
	resp, err = client.Get(srv.URL + "/discussion/begin?url=" + url.QueryEscape(novel))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body = fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(novel), "")
	id2, _ := htmlx.Attr(body, "data-commenturl-id")
	if id2 != id {
		t.Errorf("resubmission changed id: %s -> %s", id, id2)
	}
}

func TestSubmitExistingURLKeepsID(t *testing.T) {
	_, srv := newTestServer(t)
	existing := allURLs(out.DB)[0]
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/discussion/begin?url=" + url.QueryEscape(existing.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(existing.URL), "")
	if id, _ := htmlx.Attr(body, "data-commenturl-id"); id != existing.ID.String() {
		t.Errorf("existing URL id changed: %s vs %s", id, existing.ID)
	}
}

func TestSubmitCovertAnchor(t *testing.T) {
	// §6: "The URL need not exist, can use any arbitrary scheme" — the
	// covert-channel property.
	_, srv, _ := newIsolatedServer(t)
	anchor := "dissenter://secret/meeting-point-7"
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.Get(srv.URL + "/discussion/begin?url=" + url.QueryEscape(anchor))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(anchor), "")
	if _, ok := htmlx.Attr(body, "data-commenturl-id"); !ok {
		t.Error("arbitrary-scheme anchor did not get a comment page")
	}
}

func TestBeginMissingURL(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := fetch(t, srv.URL+"/discussion/begin", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

// TestTrendsTieBreakNewestFirst pins the documented tie-break: among
// URLs with equal visible comment counts, the most recently first-seen
// URL ranks first.
func TestTrendsTieBreakNewestFirst(t *testing.T) {
	gen := ids.NewGenerator(0x7E5)
	base := time.Date(2020, 2, 1, 12, 0, 0, 0, time.UTC)
	author := gen.NewAt(base)
	user := &platform.User{
		GabID: 1, Username: "tiebreaker", HasDissenter: true, AuthorID: author,
	}
	// Three URLs, one visible comment each (a three-way tie), first seen
	// in an order that differs from their URL-string order.
	firstSeen := []time.Time{
		base.Add(2 * time.Hour), // middle
		base.Add(4 * time.Hour), // newest
		base.Add(1 * time.Hour), // oldest
	}
	addrs := []string{
		"https://tie.example/a",
		"https://tie.example/b",
		"https://tie.example/c",
	}
	var urls []*platform.CommentURL
	var comments []*platform.Comment
	for i, fs := range firstSeen {
		cu := &platform.CommentURL{ID: gen.NewAt(fs), URL: addrs[i], FirstSeen: fs}
		urls = append(urls, cu)
		comments = append(comments, &platform.Comment{
			ID: gen.NewAt(fs.Add(time.Minute)), URLID: cu.ID, AuthorID: author,
			Text: "tie comment", CreatedAt: fs.Add(time.Minute),
		})
	}
	db := platform.New([]*platform.User{user}, urls, comments, nil)
	s := NewServer(db, WithURLRateLimit(0, 0))
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	_, body := fetch(t, srv.URL+"/trends", "")
	want := []string{addrs[1], addrs[0], addrs[2]} // newest first-seen first
	items := htmlx.FindTags(body, "li")
	if len(items) != len(want) {
		t.Fatalf("trends lists %d entries, want %d", len(items), len(want))
	}
	for i, li := range items {
		if !strings.Contains(li.Text, url.QueryEscape(want[i])) {
			t.Errorf("position %d: got %q, want link to %q", i, li.Text, want[i])
		}
	}
}

// TestURLCanonicalizationUnifiesRecords pins that trivially different
// encodings of one address share a single CommentURL record, one vote
// tally, one cache subject, and one rate-limit bucket.
func TestURLCanonicalizationUnifiesRecords(t *testing.T) {
	_, srv, priv := newIsolatedServer(t)
	canonical := "https://example.org/canon/one-story"
	variants := []string{
		"HTTPS://EXAMPLE.ORG/canon/one-story",
		"https://example.org:443/canon/one-story",
		"https://example.org/canon/one-story#comments",
	}
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	before := len(allURLs(priv.DB))
	for _, v := range append([]string{canonical}, variants...) {
		resp, err := client.Get(srv.URL + "/discussion/begin?url=" + url.QueryEscape(v))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if got := len(allURLs(priv.DB)) - before; got != 1 {
		t.Fatalf("submitting 4 encodings minted %d records, want 1", got)
	}
	_, body := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(canonical), "")
	id, _ := htmlx.Attr(body, "data-commenturl-id")
	for _, v := range variants {
		_, vb := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(v), "")
		if vid, _ := htmlx.Attr(vb, "data-commenturl-id"); vid != id {
			t.Errorf("variant %q resolved to id %q, want %q", v, vid, id)
		}
	}

	// Votes through any encoding land on the one tally.
	for _, v := range variants {
		resp, err := client.Get(srv.URL + "/discussion/vote?url=" + url.QueryEscape(v) + "&dir=up")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	cu := priv.DB.URLByString(canonical)
	if cu == nil {
		t.Fatal("canonical record missing")
	}
	if ups, _ := priv.DB.Votes(cu.ID); ups != len(variants) {
		t.Errorf("tally = %d ups, want %d (votes split across encodings?)", ups, len(variants))
	}
}

// TestRateLimitBucketSharedAcrossEncodings pins that request budgets
// cannot be multiplied by re-encoding the target URL.
func TestRateLimitBucketSharedAcrossEncodings(t *testing.T) {
	_, srv, priv := newIsolatedServer(t, WithURLRateLimit(3, time.Hour))
	cu := busyURL(t, priv)
	shouty := strings.Replace(cu.URL, "https://", "HTTPS://", 1)
	fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(cu.URL), "")
	fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(shouty), "")
	fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(cu.URL), "")
	resp, _ := fetch(t, srv.URL+"/discussion?url="+url.QueryEscape(shouty), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("4th request via re-encoding status = %d, want 429", resp.StatusCode)
	}
}
