// Concurrent-load benchmarks for the sharded platform store and the
// HTTP simulators in front of it. Run with -cpu to see scaling, e.g.
//
//	go test -bench=Concurrent -cpu 1,2,4,8 .
//
// The store benchmarks measure raw index throughput; the httptest-driven
// ones measure what a crawler fleet actually experiences, with and
// without the response cache.
package dissenter_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/benchkit"
	"dissenter/internal/dissenterweb"
	"dissenter/internal/gabapi"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/synth"
)

var (
	loadOnce sync.Once
	loadOut  *synth.Output
)

// loadFixture is a dedicated small corpus for the load benchmarks,
// independent of the full-pipeline fixture so `-bench=Concurrent` runs
// start fast.
func loadFixture(b *testing.B) *synth.Output {
	b.Helper()
	loadOnce.Do(func() {
		loadOut = synth.Generate(synth.NewConfig(1.0/256, 7))
	})
	return loadOut
}

func BenchmarkStoreConcurrentReads(b *testing.B) {
	out := loadFixture(b)
	db := out.DB
	users := allUsers(db)
	urls := allURLs(db)
	maxID := int64(db.MaxGabID())
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			_ = db.UserByGabID(ids.GabID(1 + int64(i)%maxID))
			u := users[i%len(users)]
			_ = db.UserByUsername(u.Username)
			cu := urls[i%len(urls)]
			for _, c := range db.CommentsOnURL(cu.ID) {
				_ = c.IsReply()
			}
			_, _ = db.Votes(cu.ID)
			_ = db.Followers(u.GabID)
		}
	})
}

func BenchmarkStoreConcurrentMixed(b *testing.B) {
	// ~6% writes (submit + vote), the rest reads — a trends-heavy day.
	// Private fixture: this benchmark grows the store, and sharing it
	// would order-couple the read-only benchmarks that follow.
	out := synth.Generate(synth.NewConfig(1.0/256, 7))
	db := out.DB
	urls := allURLs(db)
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		gen := ids.NewGenerator(uint64(seq.Add(1)) * 7919)
		i := 0
		for pb.Next() {
			i++
			cu := urls[i%len(urls)]
			if i%16 == 0 {
				n := seq.Add(1)
				submitted, _ := db.SubmitURL(&platform.CommentURL{
					ID:        gen.New(),
					URL:       fmt.Sprintf("https://bench.example/%d", n%4096),
					FirstSeen: time.Now(),
				})
				db.Vote(submitted.ID, 1, 0)
				continue
			}
			for _, c := range db.CommentsOnURL(cu.ID) {
				_ = c.Hidden()
			}
			_, _ = db.Votes(cu.ID)
		}
	})
}

// benchClient is a keep-alive client sized for the parallel benchmarks.
func benchClient() *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 256}
	return &http.Client{Transport: tr}
}

// underLoadBatch is how many requests each under-write-load benchmark
// op issues. With ONE request per op the `make bench` smoke run
// (-benchtime=1x) would measure a single guaranteed cold miss and
// report cache_hit_pct 0 — a stat-plumbing artifact, not a real
// stampede. Batching makes even a 1x run exercise the read/write mix
// the benchmark is about; ns/req is per REQUEST, not per op.
const underLoadBatch = 32

// benchPostComment submits one live comment as bench-writer and fails
// the benchmark on any transport or status error. b.Errorf, not Fatal:
// FailNow must stay off RunParallel worker goroutines.
func benchPostComment(b *testing.B, client *http.Client, base, pageURL, text string) bool {
	form := url.Values{"url": {pageURL}, "text": {text}}
	req, err := http.NewRequest(http.MethodPost, base+"/discussion/comment",
		strings.NewReader(form.Encode()))
	if err != nil {
		b.Errorf("build post: %v", err)
		return false
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.AddCookie(&http.Cookie{Name: "session", Value: "bench-writer"})
	resp, err := client.Do(req)
	if err != nil {
		b.Errorf("post: %v", err)
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Errorf("post status = %d", resp.StatusCode)
		return false
	}
	return true
}

func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func BenchmarkGabAPIConcurrentLoad(b *testing.B) {
	out := loadFixture(b)
	srv := httptest.NewServer(gabapi.NewServer(out.DB, gabapi.WithRateLimit(0, 0)))
	defer srv.Close()
	client := benchClient()
	maxID := int64(out.DB.MaxGabID())
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			benchGet(b, client, fmt.Sprintf("%s/api/v1/accounts/%d", srv.URL, 1+int64(i)%maxID))
		}
	})
}

func benchmarkDiscussionLoad(b *testing.B, opts ...dissenterweb.Option) {
	out := loadFixture(b)
	opts = append([]dissenterweb.Option{dissenterweb.WithURLRateLimit(0, 0)}, opts...)
	s := dissenterweb.NewServer(out.DB, opts...)
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := benchClient()
	urls := allURLs(out.DB)
	// A zipf-less stand-in for crawler locality: cycle a small hot set.
	hot := urls
	if len(hot) > 64 {
		hot = hot[:64]
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			benchGet(b, client, srv.URL+"/discussion?url="+url.QueryEscape(hot[i%len(hot)].URL))
		}
	})
	b.StopTimer()
	hits, misses := s.CacheStats()
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total)*100, "cache_hit_pct")
	}
}

func BenchmarkWebDiscussionConcurrentCached(b *testing.B) {
	benchmarkDiscussionLoad(b)
}

func BenchmarkWebDiscussionConcurrentUncached(b *testing.B) {
	benchmarkDiscussionLoad(b, dissenterweb.WithResponseCache(0, 0))
}

// BenchmarkWebMixedReadWriteConcurrent is the live-growth load shape:
// a crawler fleet hammering discussion pages while comments stream in
// through POST /discussion/comment (~3% writes). It reports the cache
// hit rate and then asserts coherence: after the load stops, the very
// next render of every hot page must agree with the store's comment
// count — a dropped write-path invalidation fails the benchmark, not
// just a test.
func BenchmarkWebMixedReadWriteConcurrent(b *testing.B) {
	// Private fixture: writes grow the store, and sharing loadFixture
	// would order-couple the read-only benchmarks.
	out := synth.Generate(synth.NewConfig(1.0/256, 7))
	s := dissenterweb.NewServer(out.DB, dissenterweb.WithURLRateLimit(0, 0))
	writer := out.DB.ActiveUsers()[0]
	s.RegisterSession("bench-writer", dissenterweb.Session{Username: writer.Username})
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := benchClient()
	hot := allURLs(out.DB)
	if len(hot) > 64 {
		hot = hot[:64]
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			cu := hot[i%len(hot)]
			if i%32 == 0 {
				form := url.Values{
					"url":  {cu.URL},
					"text": {fmt.Sprintf("bench live comment %d", i)},
				}
				// b.Errorf, not Fatal: FailNow must stay off RunParallel
				// worker goroutines.
				req, err := http.NewRequest(http.MethodPost, srv.URL+"/discussion/comment",
					strings.NewReader(form.Encode()))
				if err != nil {
					b.Errorf("build post: %v", err)
					return
				}
				req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
				req.AddCookie(&http.Cookie{Name: "session", Value: "bench-writer"})
				resp, err := client.Do(req)
				if err != nil {
					b.Errorf("post: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("post status = %d", resp.StatusCode)
					return
				}
				continue
			}
			benchGet(b, client, srv.URL+"/discussion?url="+url.QueryEscape(cu.URL))
		}
	})
	b.StopTimer()
	hits, misses := s.CacheStats()
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total)*100, "cache_hit_pct")
	}
	// Staleness assertion: every hot page's next render (cached or not)
	// must carry the store's current visible-comment count.
	countRe := regexp.MustCompile(`class="commentcount">(\d+)<`)
	for _, cu := range hot {
		resp, err := client.Get(srv.URL + "/discussion?url=" + url.QueryEscape(cu.URL))
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		m := countRe.FindSubmatch(body)
		if m == nil {
			b.Fatalf("no commentcount on %s", cu.URL)
		}
		visible := 0
		for _, c := range out.DB.CommentsOnURL(cu.ID) {
			if !c.Hidden() {
				visible++
			}
		}
		if got, _ := strconv.Atoi(string(m[1])); got != visible {
			b.Fatalf("stale render of %s: shows %d comments, store holds %d visible", cu.URL, got, visible)
		}
	}
}

// --- trends scaling benchmarks ------------------------------------------
//
// The trends ranking is write-maintained (platform trend index), so a
// cache-miss render must cost O(TrendLimit) regardless of store size.
// BenchmarkTrendsRenderMiss pins the render cost itself at two store
// sizes two orders of magnitude apart — ns/op and allocs/op must stay
// within the same ballpark, where the old full-scan ranking scaled
// ~linearly with the URL table. BenchmarkTrendsUnderWriteLoad is the
// adversarial §3.2 load shape: concurrent posters invalidating every
// cached trends view while readers hammer the portal.
//
// With BENCH_TRENDS_MAX_ALLOCS=<n> set,
// BenchmarkTrendsRenderMiss fails if a render allocates more than n
// objects — the CI bench-smoke budget that catches allocation
// regressions on the hot path.

// trendsScale is one benchmark store size.
type trendsScale struct {
	name            string
	urls, per       int // per = comments per URL
	authors         int
	nsfwMod, offMod int // every n-th comment carries the flag
}

var trendsScales = []trendsScale{
	{name: "urls=1k_comments=10k", urls: 1_000, per: 10, authors: 64, nsfwMod: 13, offMod: 17},
	{name: "urls=100k_comments=1M", urls: 100_000, per: 10, authors: 64, nsfwMod: 13, offMod: 17},
}

type trendsFixture struct {
	db     *platform.DB
	writer *platform.User
	hot    []*platform.CommentURL
}

var (
	trendsFixMu  sync.Mutex
	trendsFixSet = map[string]*trendsFixture{}
)

// trendsBenchFixture returns the process-cached read-only store for a
// size; write benchmarks must use buildTrendsFixture directly so they
// never mutate the fixture other sub-benchmarks measure.
func trendsBenchFixture(b *testing.B, sc trendsScale) *trendsFixture {
	b.Helper()
	trendsFixMu.Lock()
	defer trendsFixMu.Unlock()
	if f, ok := trendsFixSet[sc.name]; ok {
		return f
	}
	f := buildTrendsFixture(sc)
	trendsFixSet[sc.name] = f
	return f
}

// buildTrendsFixture constructs a store with sc.urls URL records and
// sc.urls*sc.per comments, built directly — synth's realistic corpus
// would take far too long at 1M comments, and the ranking only cares
// about counts and flags.
func buildTrendsFixture(sc trendsScale) *trendsFixture {
	gen := ids.NewGenerator(0x7E4D5)
	base := time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)
	users := make([]*platform.User, sc.authors)
	for i := range users {
		users[i] = &platform.User{
			GabID:        ids.GabID(i + 1),
			Username:     fmt.Sprintf("bench-author-%03d", i),
			HasDissenter: true,
			AuthorID:     gen.NewAt(base),
		}
	}
	urls := make([]*platform.CommentURL, sc.urls)
	for i := range urls {
		urls[i] = &platform.CommentURL{
			ID:    gen.NewAt(base.Add(time.Duration(i%4096) * time.Second)),
			URL:   fmt.Sprintf("https://bench.trends/story/%07d", i),
			Title: fmt.Sprintf("Bench story #%d", i),
			// Baseline vote spread (positive and negative nets) so the
			// leaderboard benchmarks rank a realistic score surface.
			Ups:       (i * 7) % 23,
			Downs:     (i * 5) % 19,
			FirstSeen: base.Add(time.Duration(i%4096) * time.Second),
		}
	}
	comments := make([]*platform.Comment, sc.urls*sc.per)
	at := base.Add(2 * time.Hour)
	for i := range comments {
		comments[i] = &platform.Comment{
			ID:        gen.NewAt(at),
			URLID:     urls[i%sc.urls].ID,
			AuthorID:  users[i%sc.authors].AuthorID,
			Text:      "bench trends comment",
			CreatedAt: at,
			NSFW:      i%sc.nsfwMod == 0,
			Offensive: i%sc.offMod == 0,
		}
	}
	return &trendsFixture{
		db:     platform.New(users, urls, comments, nil),
		writer: users[0],
		hot:    urls[:min(64, len(urls))],
	}
}

// BenchmarkTrendsUnderWriteLoad is the moving-target regime: a
// concurrent mix where every 4th request posts a comment through
// POST /discussion/comment (invalidating all four cached trends views)
// and the rest read /trends. With the write-maintained index,
// ns_per_req must be independent of store size — compare the urls=1k
// and urls=100k sub-benchmarks, which differ 100x in store size. Each
// op issues underLoadBatch requests so the recorded cache_hit_pct is
// real even in the 1x smoke run (see underLoadBatch).
func BenchmarkTrendsUnderWriteLoad(b *testing.B) {
	for _, sc := range trendsScales {
		b.Run(sc.name, func(b *testing.B) {
			// Private fixture: this benchmark grows the store, and the
			// cached one must stay pristine for the render benchmarks.
			f := buildTrendsFixture(sc)
			s := dissenterweb.NewServer(f.db, dissenterweb.WithURLRateLimit(0, 0))
			s.RegisterSession("bench-writer", dissenterweb.Session{Username: f.writer.Username})
			srv := httptest.NewServer(s)
			defer srv.Close()
			client := benchClient()
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					for j := 0; j < underLoadBatch; j++ {
						i++
						if i%4 == 0 {
							n := seq.Add(1)
							cu := f.hot[int(n)%len(f.hot)]
							if !benchPostComment(b, client, srv.URL, cu.URL, "trends write load") {
								return
							}
							continue
						}
						benchGet(b, client, srv.URL+"/trends")
					}
				}
			})
			b.StopTimer()
			hits, misses := s.CacheStats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*underLoadBatch), "ns/req")
			if total := hits + misses; total > 0 {
				b.ReportMetric(float64(hits)/float64(total)*100, "cache_hit_pct")
			}
		})
	}
}

// benchmarkRenderMiss measures a single render of one write-maintained
// ranking page with caching disabled, at both store scales — the pure
// cache-miss cost the acceptance budgets govern. Single-goroutine so
// the MemStats delta is the render's own allocation count. With the
// budgetEnv variable set, it fails past that allocation budget — the
// CI bench-smoke assertion that catches hot-path regressions.
func benchmarkRenderMiss(b *testing.B, path, budgetEnv string) {
	for _, sc := range trendsScales {
		b.Run(sc.name, func(b *testing.B) {
			f := trendsBenchFixture(b, sc)
			s := dissenterweb.NewServer(f.db,
				dissenterweb.WithURLRateLimit(0, 0),
				dissenterweb.WithResponseCache(0, 0))
			req := httptest.NewRequest(http.MethodGet, path, nil)
			// Warm the trends/leaderboard row memo (trendFrags) so the
			// measured ops see the steady state, then measure.
			s.ServeHTTP(httptest.NewRecorder(), req)
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("%s status = %d", path, rec.Code)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
			if max, ok := benchkit.EnvBudget(b, budgetEnv); ok && allocsPerOp > max {
				b.Fatalf("%s render allocates %.1f objects/op, budget %v — the hot path regressed",
					path, allocsPerOp, max)
			}
		})
	}
}

// BenchmarkTrendsRenderMiss pins the cache-miss trends render cost.
func BenchmarkTrendsRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, "/trends", "BENCH_TRENDS_MAX_ALLOCS")
}

// --- leaderboard scaling benchmarks --------------------------------------
//
// The net-vote leaderboard is write-maintained like trends, but over
// NON-monotone scores (platform vote index, rankheap.Exact): a
// cache-miss GET /leaderboard render must cost O(LeaderLimit)
// regardless of store size. BenchmarkLeaderboardRenderMiss pins the
// render cost at the same two store sizes as the trends benchmarks —
// ns/op and allocs/op must stay flat from 1k to 100k URLs, where a
// full-scan ranking would scale linearly. With
// BENCH_LEADER_MAX_ALLOCS=<n> set it fails past the allocation budget,
// mirroring the trends budget in CI. BenchmarkLeaderboardUnderVoteLoad
// is the adversarial shape: concurrent voters invalidating the cached
// leaderboard while readers hammer it.

// BenchmarkLeaderboardRenderMiss pins the cache-miss leaderboard
// render cost — same harness as the trends budget, different ranking.
func BenchmarkLeaderboardRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, "/leaderboard", "BENCH_LEADER_MAX_ALLOCS")
}

// BenchmarkLeaderboardUnderVoteLoad is the moving-target regime for
// votes: a concurrent mix where every 4th request casts a vote through
// /discussion/vote (invalidating the cached leaderboard by exact key)
// and the rest read /leaderboard. ns_per_req must be independent of
// store size — compare the urls=1k and urls=100k sub-benchmarks. Each
// op issues underLoadBatch requests so the recorded cache_hit_pct is
// real even in the 1x smoke run (see underLoadBatch).
func BenchmarkLeaderboardUnderVoteLoad(b *testing.B) {
	for _, sc := range trendsScales {
		b.Run(sc.name, func(b *testing.B) {
			// Private fixture: this benchmark moves the tallies, and the
			// cached one must stay pristine for the render benchmarks.
			f := buildTrendsFixture(sc)
			s := dissenterweb.NewServer(f.db, dissenterweb.WithURLRateLimit(0, 0))
			srv := httptest.NewServer(s)
			defer srv.Close()
			client := benchClient()
			// Votes answer with a redirect to the discussion page; stop
			// there so the bench measures the vote+leaderboard path, not
			// a discussion render.
			client.CheckRedirect = func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			}
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					for j := 0; j < underLoadBatch; j++ {
						i++
						if i%4 == 0 {
							n := seq.Add(1)
							cu := f.hot[int(n)%len(f.hot)]
							dir := "up"
							if n%3 == 0 {
								dir = "down"
							}
							resp, err := client.Get(srv.URL + "/discussion/vote?dir=" + dir +
								"&url=" + url.QueryEscape(cu.URL))
							if err != nil {
								b.Errorf("vote: %v", err)
								return
							}
							_, _ = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
							if resp.StatusCode != http.StatusFound {
								b.Errorf("vote status = %d", resp.StatusCode)
								return
							}
							continue
						}
						benchGet(b, client, srv.URL+"/leaderboard")
					}
				}
			})
			b.StopTimer()
			hits, misses := s.CacheStats()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*underLoadBatch), "ns/req")
			if total := hits + misses; total > 0 {
				b.ReportMetric(float64(hits)/float64(total)*100, "cache_hit_pct")
			}
		})
	}
}

// --- discussion scaling benchmarks ---------------------------------------
//
// Discussion pages are assembled from the platform fragment view
// (per-view pre-escaped streams maintained incrementally), so a
// cache-miss FILL of a materialized page is O(1): a head, a stream
// snapshot, a counter read — never a walk over the page's comments and
// never a re-escape.
// BenchmarkDiscussionRenderMiss pins exactly that: allocs/op and ns/op
// must stay flat from a 100-comment page to a 10k-comment page (the
// seed render walked and escaped all 10k on every miss). The response
// body is written to a discarding ResponseWriter because shoveling the
// page's bytes is proportional to page size for ANY implementation;
// the quantity under test is the render work, which must not be. With
// BENCH_DISC_MAX_ALLOCS=<n> set it fails past the allocation budget,
// the third CI budget beside trends and leaderboard.

// discussionScales size the comments-per-URL axis; store size is held
// small so the only variable is page length.
var discussionScales = []trendsScale{
	{name: "comments=100", urls: 4, per: 100, authors: 16, nsfwMod: 13, offMod: 17},
	{name: "comments=10k", urls: 4, per: 10_000, authors: 16, nsfwMod: 13, offMod: 17},
}

// discardRW is an http.ResponseWriter whose body writes cost O(1); it
// implements io.StringWriter so io.WriteString never copies either.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header               { return d.h }
func (d *discardRW) Write(b []byte) (int, error)       { return len(b), nil }
func (d *discardRW) WriteString(s string) (int, error) { return len(s), nil }
func (d *discardRW) WriteHeader(int)                   {}
func newDiscardRW() *discardRW                         { return &discardRW{h: http.Header{}} }

// BenchmarkDiscussionRenderMiss measures one uncached discussion fill
// at 100 and 10k comments per page — the acceptance gate is the 10k
// page staying within 2x of the 100-comment page on both ns/op and
// allocs/op.
func BenchmarkDiscussionRenderMiss(b *testing.B) {
	for _, sc := range discussionScales {
		b.Run(sc.name, func(b *testing.B) {
			f := buildTrendsFixture(sc)
			s := dissenterweb.NewServer(f.db,
				dissenterweb.WithURLRateLimit(0, 0),
				dissenterweb.WithResponseCache(0, 0))
			target := f.hot[0]
			req := httptest.NewRequest(http.MethodGet,
				"/discussion?url="+url.QueryEscape(target.URL), nil)
			// Materialize the page's comment stream in the store's
			// fragment view, the steady state the production path runs
			// in, then measure the pure miss fill.
			s.ServeHTTP(newDiscardRW(), req)
			w := newDiscardRW()
			b.ReportAllocs()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ServeHTTP(w, req)
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			allocsPerOp := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N)
			if max, ok := benchkit.EnvBudget(b, "BENCH_DISC_MAX_ALLOCS"); ok && allocsPerOp > max {
				b.Fatalf("discussion miss allocates %.1f objects/op at %s, budget %v — the hot path regressed",
					allocsPerOp, sc.name, max)
			}
		})
	}
}

// BenchmarkDiscussionFillMiss is the crawl's miss with the cache ON:
// more pages than cache entries, visited in rotation, so every request
// renders, composes (gzip included), fills and evicts — the path
// crawl_scan runs and the cache-off miss benchmarks above never reach.
// It counts BYTES: constructing a compressor per fill costs 28 objects
// and 1.2 MB, which an object budget of 64 passes. With
// BENCH_FILL_MAX_BYTES=<n> set it fails past n bytes allocated per op.
func BenchmarkDiscussionFillMiss(b *testing.B) {
	const pages = 256
	f := buildTrendsFixture(trendsScale{urls: pages, per: 2, authors: 16, nsfwMod: 13, offMod: 17})
	s := dissenterweb.NewServer(f.db,
		dissenterweb.WithURLRateLimit(0, 0),
		dissenterweb.WithResponseCache(pages/4, time.Minute))
	reqs := make([]*http.Request, pages)
	w := newDiscardRW()
	for i := range reqs {
		// buildTrendsFixture's URL scheme.
		raw := fmt.Sprintf("https://bench.trends/story/%07d", i)
		reqs[i] = httptest.NewRequest(http.MethodGet, "/discussion?url="+url.QueryEscape(raw), nil)
		reqs[i].Header.Set("Accept-Encoding", "gzip")
		s.ServeHTTP(w, reqs[i]) // materialize the page in the fragment view
	}
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	// A collection empties sync.Pools: one untimed fill puts a
	// compressor back, so the count below is the steady state's.
	s.ServeHTTP(w, reqs[0])
	_, misses0 := s.CacheStats()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(w, reqs[(i+1)%len(reqs)])
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if _, misses := s.CacheStats(); misses-misses0 != uint64(b.N) {
		b.Fatalf("%d of %d requests missed; the rotation must outrun the cache", misses-misses0, b.N)
	}
	bytesPerOp := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N)
	if max, ok := benchkit.EnvBudget(b, "BENCH_FILL_MAX_BYTES"); ok && bytesPerOp > max {
		b.Fatalf("a cached discussion fill allocates %.0f bytes/op, budget %v — the miss path regressed",
			bytesPerOp, max)
	}
}

// BenchmarkViralDiscussionUnderMixedLoad is the paper-scale adversarial
// shape (Rye, Blackburn & Beverly, Figs. 4–5): ONE viral URL with 10k+
// comments absorbing most reads AND most writes at once — concurrent
// posters appending comments, voters moving the tally, readers
// hammering the page. Comment posts append one escaped row to
// the live cache entries and votes patch two integers, so the hit rate
// stays high and ns_per_req stays flat in page size even though every
// request targets the same 10k-comment page. Batched like the other
// under-load benchmarks so the smoke run reports a real hit rate; ends
// with the staleness assertion (the next render must agree with the
// store).
func BenchmarkViralDiscussionUnderMixedLoad(b *testing.B) {
	f := buildTrendsFixture(trendsScale{
		name: "viral", urls: 4, per: 10_000, authors: 16, nsfwMod: 13, offMod: 17,
	})
	s := dissenterweb.NewServer(f.db, dissenterweb.WithURLRateLimit(0, 0))
	s.RegisterSession("bench-writer", dissenterweb.Session{Username: f.writer.Username})
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := benchClient()
	client.CheckRedirect = func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}
	viral := f.hot[0]
	page := srv.URL + "/discussion?url=" + url.QueryEscape(viral.URL)
	var seq atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			for j := 0; j < underLoadBatch; j++ {
				i++
				switch {
				case i%8 == 0: // poster
					n := seq.Add(1)
					if !benchPostComment(b, client, srv.URL, viral.URL,
						fmt.Sprintf("viral pile-on %d", n)) {
						return
					}
				case i%8 == 4: // voter
					dir := "up"
					if i%3 == 0 {
						dir = "down"
					}
					resp, err := client.Get(srv.URL + "/discussion/vote?dir=" + dir +
						"&url=" + url.QueryEscape(viral.URL))
					if err != nil {
						b.Errorf("vote: %v", err)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusFound {
						b.Errorf("vote status = %d", resp.StatusCode)
						return
					}
				default: // reader
					benchGet(b, client, page)
				}
			}
		}
	})
	b.StopTimer()
	hits, misses := s.CacheStats()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*underLoadBatch), "ns/req")
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total)*100, "cache_hit_pct")
	}
	// Staleness assertion: the very next render must carry the store's
	// current visible-comment count — a dropped patch or invalidation
	// fails the benchmark, not just a test.
	countRe := regexp.MustCompile(`class="commentcount">(\d+)<`)
	resp, err := client.Get(page)
	if err != nil {
		b.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		b.Fatal(err)
	}
	mch := countRe.FindSubmatch(body)
	if mch == nil {
		b.Fatalf("no commentcount on %s", viral.URL)
	}
	visible := 0
	for _, c := range f.db.CommentsOnURL(viral.ID) {
		if !c.Hidden() {
			visible++
		}
	}
	if got, _ := strconv.Atoi(string(mch[1])); got != visible {
		b.Fatalf("stale render: shows %d comments, store holds %d visible", got, visible)
	}
}

func BenchmarkWebTrendsConcurrentCached(b *testing.B) {
	out := loadFixture(b)
	s := dissenterweb.NewServer(out.DB, dissenterweb.WithURLRateLimit(0, 0))
	srv := httptest.NewServer(s)
	defer srv.Close()
	client := benchClient()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			benchGet(b, client, srv.URL+"/trends")
		}
	})
	b.StopTimer()
	hits, misses := s.CacheStats()
	if total := hits + misses; total > 0 {
		b.ReportMetric(float64(hits)/float64(total)*100, "cache_hit_pct")
	}
}
