package youtube

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func testSite() *Site {
	videos := []Video{
		{URL: "https://www.youtube.com/watch?v=abc123", Kind: KindVideo,
			Title: "Border Debate", Owner: "Fox News", Status: StatusActive},
		{URL: "https://youtu.be/def456", Kind: KindVideo,
			Title: "Economy Report", Owner: "CNN", Status: StatusActive, CommentsDisabled: true},
		{URL: "https://www.youtube.com/watch?v=gone01", Kind: KindVideo,
			Title: "", Owner: "Channel 001", Status: StatusTerminated},
		{URL: "https://www.youtube.com/watch?v=hate01", Kind: KindVideo,
			Title: "", Owner: "Channel 002", Status: StatusHateRemoved},
		{URL: "https://www.youtube.com/channel/UCxyz", Kind: KindChannel,
			Title: "Channel Page", Owner: "Channel 003", Status: StatusActive},
	}
	return NewSite(videos, map[string]int{"Fox News": 100, "CNN": 1000})
}

func TestLookup(t *testing.T) {
	s := testSite()
	v, ok := s.Lookup("https://www.youtube.com/watch?v=abc123")
	if !ok || v.Owner != "Fox News" {
		t.Fatalf("Lookup failed: %+v %v", v, ok)
	}
	// Scheme and host variants resolve to the same video.
	for _, u := range []string{
		"http://www.youtube.com/watch?v=abc123",
		"https://youtube.com/watch?v=abc123",
		"https://m.youtube.com/watch?v=abc123",
	} {
		if _, ok := s.Lookup(u); !ok {
			t.Errorf("variant %q did not resolve", u)
		}
	}
	// youtu.be links resolve as watch URLs.
	if _, ok := s.Lookup("https://youtu.be/def456"); !ok {
		t.Error("youtu.be link did not resolve")
	}
	if _, ok := s.Lookup("https://www.youtube.com/watch?v=missing"); ok {
		t.Error("missing video resolved")
	}
}

func TestOwnerTotals(t *testing.T) {
	s := testSite()
	if s.OwnerTotal("Fox News") != 100 || s.OwnerTotal("CNN") != 1000 {
		t.Error("owner totals wrong")
	}
	if s.OwnerTotal("nobody") != 0 {
		t.Error("unknown owner should be 0")
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestServeAndCrawl(t *testing.T) {
	s := testSite()
	srv := httptest.NewServer(s)
	defer srv.Close()
	c := NewCrawler(srv.URL, srv.Client())
	ctx := context.Background()

	pd, err := c.Fetch(ctx, "https://www.youtube.com/watch?v=abc123")
	if err != nil {
		t.Fatal(err)
	}
	if pd.Title != "Border Debate" || pd.Owner != "Fox News" ||
		pd.Status != StatusActive || pd.Kind != KindVideo || pd.CommentsDisabled {
		t.Errorf("crawled metadata wrong: %+v", pd)
	}

	pd, err = c.Fetch(ctx, "https://youtu.be/def456")
	if err != nil {
		t.Fatal(err)
	}
	if !pd.CommentsDisabled {
		t.Error("comments-disabled flag lost in crawl")
	}

	// Unknown URLs come back as generic unavailable, like a dead video.
	pd, err = c.Fetch(ctx, "https://www.youtube.com/watch?v=nope")
	if err != nil {
		t.Fatal(err)
	}
	if pd.Status != StatusUnavailable {
		t.Errorf("missing video status = %v", pd.Status)
	}
}

// TestCrawlAll crawls a healthy site and one that answers 503 to every
// third request: the re-request machinery must absorb the failures and
// the tally, which is commutative, must come out the same.
func TestCrawlAll(t *testing.T) {
	site := testSite()
	var requests atomic.Uint64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1)%3 == 0 {
			http.Error(w, "transient storage error", http.StatusServiceUnavailable)
			return
		}
		site.ServeHTTP(w, r)
	})
	urls := []string{
		"https://www.youtube.com/watch?v=abc123",
		"https://youtu.be/def456",
		"https://www.youtube.com/watch?v=gone01",
		"https://www.youtube.com/watch?v=hate01",
		"https://www.youtube.com/channel/UCxyz",
	}
	for name, h := range map[string]http.Handler{"healthy": site, "flaky": flaky} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(h)
			defer srv.Close()
			sum, err := NewCrawler(srv.URL, srv.Client()).CrawlAll(context.Background(), urls, 2)
			if err != nil {
				t.Fatal(err)
			}
			if sum.Total != 5 {
				t.Errorf("Total = %d", sum.Total)
			}
			if sum.ByKind[KindVideo] != 4 || sum.ByKind[KindChannel] != 1 {
				t.Errorf("ByKind = %v", sum.ByKind)
			}
			if sum.ByStatus[StatusActive] != 3 || sum.ByStatus[StatusTerminated] != 1 || sum.ByStatus[StatusHateRemoved] != 1 {
				t.Errorf("ByStatus = %v", sum.ByStatus)
			}
			if sum.ActiveCommentsDisabled != 1 {
				t.Errorf("ActiveCommentsDisabled = %d", sum.ActiveCommentsDisabled)
			}
			if sum.CommentedByOwner["Fox News"] != 1 {
				t.Errorf("CommentedByOwner = %v", sum.CommentedByOwner)
			}
		})
	}
	if requests.Load() < 7 {
		t.Errorf("flaky site saw %d requests; the 503s were not re-requested", requests.Load())
	}
}

func TestParsePageErrors(t *testing.T) {
	if _, err := ParsePage("<html>no data</html>"); err == nil {
		t.Error("pages without the blob should error")
	}
	if _, err := ParsePage("var ytInitialData = {broken"); err == nil {
		t.Error("truncated blob should error")
	}
}

func TestRenderPageHidesDataFromStaticHTML(t *testing.T) {
	// The page <title> must be the useless "/watch" — the real title only
	// exists inside the JS blob. This is the property that forces the
	// §3.3 crawling approach.
	page := renderPage(Video{Kind: KindVideo, Title: "Secret Title", Owner: "X", Status: StatusActive})
	if !strings.Contains(page, "<title>/watch</title>") {
		t.Error("static title should be /watch")
	}
	head := page[:strings.Index(page, "<script>")]
	if strings.Contains(head, "Secret Title") {
		t.Error("real title leaked into static HTML")
	}
}
