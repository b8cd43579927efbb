// The serving path's allocation and memory budgets: the six root
// benchmarks `make bench-budget` gates (the snapshot encoder's budget
// lives in internal/eventlog). The request-shape ones run one request
// shape in a single goroutine, so the MemStats delta is that request's
// own; each, with its BENCH_* variable set, fails past the budget the
// Makefile states.
//
//   - TrendsRenderMiss / LeaderboardRenderMiss / DiscussionRenderMiss: a
//     cache miss — render, compose (gzip included), fill — must allocate
//     the same few objects whether the store holds 1k or 100k URLs, and
//     whether the page holds 100 or 10k comments: the rankings and the
//     comment stream are write-maintained views, never re-walked.
//   - DiscussionFillMiss: the same miss counted in BYTES with the keys
//     rotating past the cache's capacity, as crawl_scan runs it.
//   - DiscussionHit / DiscussionHit304: a hit allocates nothing, whether
//     it shovels the gzip member, the identity parts of a segmented
//     page, or a bodyless 304.
//   - ResidentPerComment: the heap a posted comment keeps on a durable
//     primary and its replica once its page has been read on both.
//
// Latency and throughput under load are not measured here: the four
// BENCHMARK.json workloads (`bash bench/run.sh`) do that against the
// real fleet, with every response checked.
package dissenter_test

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dissenter/internal/benchkit"
	"dissenter/internal/dissenterweb"
	"dissenter/internal/eventlog"
	"dissenter/internal/ids"
	"dissenter/internal/platform"
	"dissenter/internal/replica"
	"dissenter/internal/synth"
)

// storeScale is one benchmark store size.
type storeScale struct {
	name            string
	urls, per       int // per = comments per URL
	authors         int
	nsfwMod, offMod int // every n-th comment carries the flag
}

// rankingScales differ 100x in store size: a miss render of a ranking
// page is O(TrendLimit) / O(LeaderLimit) at both.
var rankingScales = []storeScale{
	{name: "urls=1k_comments=10k", urls: 1_000, per: 10, authors: 64, nsfwMod: 13, offMod: 17},
	{name: "urls=100k_comments=1M", urls: 100_000, per: 10, authors: 64, nsfwMod: 13, offMod: 17},
}

// discussionScales size the comments-per-URL axis; store size is held
// small so the only variable is page length.
var discussionScales = []storeScale{
	{name: "comments=100", urls: 4, per: 100, authors: 16, nsfwMod: 13, offMod: 17},
	{name: "comments=10k", urls: 4, per: 10_000, authors: 16, nsfwMod: 13, offMod: 17},
}

type storeFixture struct {
	db  *platform.DB
	hot []*platform.CommentURL
}

var (
	fixMu  sync.Mutex
	fixSet = map[string]*storeFixture{}
)

// sharedFixture returns the process-cached store for a size. The
// benchmarks here only read it.
func sharedFixture(sc storeScale) *storeFixture {
	fixMu.Lock()
	defer fixMu.Unlock()
	f, ok := fixSet[sc.name]
	if !ok {
		f = buildFixture(sc)
		fixSet[sc.name] = f
	}
	return f
}

// buildFixture constructs a store with sc.urls URL records and
// sc.urls*sc.per comments, built directly — synth's realistic corpus
// would take far too long at 1M comments, and the views only care
// about counts and flags.
func buildFixture(sc storeScale) *storeFixture {
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
			URL:   fixtureURL(i),
			Title: fmt.Sprintf("Bench story #%d", i),
			// Baseline vote spread (positive and negative nets) so the
			// leaderboard ranks a realistic score surface.
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
	return &storeFixture{
		db:  platform.New(users, urls, comments, nil),
		hot: urls[:min(64, len(urls))],
	}
}

func fixtureURL(i int) string { return fmt.Sprintf("https://bench.trends/story/%07d", i) }

// discardRW is an http.ResponseWriter whose body writes cost O(1):
// shoveling a page's bytes is proportional to its size for ANY
// implementation; the quantity under test is the work before the write.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardRW) WriteHeader(int)             {}
func newDiscardRW() *discardRW                   { return &discardRW{h: http.Header{}} }

// perOp runs op(1)…op(b.N) and returns the objects and bytes one op
// allocated, as a MemStats delta. A collection empties sync.Pools, so
// an untimed op(0) after it puts a compressor back: the count is the
// steady state's.
func perOp(b *testing.B, op func(i int)) (mallocs, bytes float64) {
	b.ReportAllocs()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	op(0)
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		op(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N), float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(b.N)
}

// benchmarkRenderMiss measures one miss of path at every scale, on the
// path production runs: the cache is on and every entry has expired by
// the next request (a 1 ns TTL, as bench/probes.go forces misses), so
// each op renders, composes and refills. The first, untimed request
// materialises the store's page view and the row memo, the steady
// state the production path runs in.
func benchmarkRenderMiss(b *testing.B, scales []storeScale, path func(*storeFixture) string, budgetEnv string) {
	for _, sc := range scales {
		b.Run(sc.name, func(b *testing.B) {
			f := sharedFixture(sc)
			s := dissenterweb.NewServer(f.db,
				dissenterweb.WithURLRateLimit(0, 0),
				dissenterweb.WithResponseCache(dissenterweb.DefaultCacheSize, time.Nanosecond))
			req := httptest.NewRequest(http.MethodGet, path(f), nil)
			req.Header.Set("Accept-Encoding", "gzip")
			w := newDiscardRW()
			s.ServeHTTP(w, req)
			_, misses0 := s.CacheStats()
			allocs, _ := perOp(b, func(int) { s.ServeHTTP(w, req) })
			if _, misses := s.CacheStats(); misses-misses0 != uint64(b.N)+1 {
				b.Fatalf("%d of %d requests missed; the TTL must expire every entry", misses-misses0, b.N+1)
			}
			if max, ok := benchkit.EnvBudget(b, budgetEnv); ok && allocs > max {
				b.Fatalf("a miss of %s allocates %.1f objects/op at %s, budget %v — the miss path regressed",
					req.URL.Path, allocs, sc.name, max)
			}
		})
	}
}

// BenchmarkTrendsRenderMiss pins the /trends miss (BENCH_TRENDS_MAX_ALLOCS).
func BenchmarkTrendsRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, rankingScales, func(*storeFixture) string { return "/trends" }, "BENCH_TRENDS_MAX_ALLOCS")
}

// BenchmarkLeaderboardRenderMiss pins the /leaderboard miss — the same
// harness over NON-monotone scores (platform vote index,
// rankheap.Exact) (BENCH_LEADER_MAX_ALLOCS).
func BenchmarkLeaderboardRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, rankingScales, func(*storeFixture) string { return "/leaderboard" }, "BENCH_LEADER_MAX_ALLOCS")
}

// BenchmarkDiscussionRenderMiss pins the discussion-page miss at 100
// and 10k comments per page: a head, a stream snapshot, a counter read
// and one compose — never a walk over the page's comments and never a
// re-escape (BENCH_DISC_MAX_ALLOCS).
func BenchmarkDiscussionRenderMiss(b *testing.B) {
	benchmarkRenderMiss(b, discussionScales, func(f *storeFixture) string {
		return "/discussion?url=" + url.QueryEscape(f.hot[0].URL)
	}, "BENCH_DISC_MAX_ALLOCS")
}

// BenchmarkDiscussionFillMiss is the crawl's miss: more pages than
// cache entries, visited in rotation, so every request renders,
// composes (gzip included), fills and evicts — the path crawl_scan
// runs. It counts BYTES: constructing a compressor per fill costs 28
// objects and 1.2 MB, which an object budget of 64 passes
// (BENCH_FILL_MAX_BYTES).
func BenchmarkDiscussionFillMiss(b *testing.B) {
	const pages = 256
	f := buildFixture(storeScale{urls: pages, per: 2, authors: 16, nsfwMod: 13, offMod: 17})
	s := dissenterweb.NewServer(f.db,
		dissenterweb.WithURLRateLimit(0, 0),
		dissenterweb.WithResponseCache(pages/4, time.Minute))
	reqs := make([]*http.Request, pages)
	w := newDiscardRW()
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/discussion?url="+url.QueryEscape(fixtureURL(i)), nil)
		reqs[i].Header.Set("Accept-Encoding", "gzip")
		s.ServeHTTP(w, reqs[i]) // materialize the page in the fragment view
	}
	_, misses0 := s.CacheStats()
	_, bytes := perOp(b, func(i int) { s.ServeHTTP(w, reqs[i%len(reqs)]) })
	if _, misses := s.CacheStats(); misses-misses0 != uint64(b.N)+1 {
		b.Fatalf("%d of %d requests missed; the rotation must outrun the cache", misses-misses0, b.N+1)
	}
	if max, ok := benchkit.EnvBudget(b, "BENCH_FILL_MAX_BYTES"); ok && bytes > max {
		b.Fatalf("a cached discussion fill allocates %.0f bytes/op, budget %v — the miss path regressed", bytes, max)
	}
}

// hitBenchServer returns a default-cache server over the 10k-comment
// page plus a warmed discussion request — one miss to fill and compose
// the entry — and the validator the 200 carried.
func hitBenchServer(b *testing.B) (*dissenterweb.Server, *http.Request, string) {
	b.Helper()
	f := sharedFixture(discussionScales[1])
	s := dissenterweb.NewServer(f.db, dissenterweb.WithURLRateLimit(0, 0))
	// Raw (unescaped) query: ':' and '/' are legal query bytes, and the
	// zero-copy query scan + URL fast path only stay allocation-free
	// when no percent-decoding is needed — which is how user agents
	// send these URLs in practice.
	req := httptest.NewRequest(http.MethodGet, "/discussion?url="+f.hot[0].URL, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("warm status = %d", rec.Code)
	}
	etag := rec.Header().Get("Etag")
	if etag == "" {
		b.Fatal("warm response carries no ETag — the composed-response path is not engaged")
	}
	return s, req, etag
}

// benchmarkHit enforces BENCH_HIT_MAX_ALLOCS (CI uses 0) on repeated
// serves of req, which must hit. The count is rounded to the nearest
// integer: sub-0.5/op background noise (runtime timers, GC bookkeeping
// amortized over the measured iterations) cannot flake a zero budget,
// while any real per-request allocation — necessarily ≥ 1/op — still
// fails it.
func benchmarkHit(b *testing.B, s *dissenterweb.Server, req *http.Request) {
	w := newDiscardRW()
	s.ServeHTTP(w, req) // pre-size w's header map so its buckets exist
	allocs, _ := perOp(b, func(int) { s.ServeHTTP(w, req) })
	if max, ok := benchkit.EnvBudget(b, "BENCH_HIT_MAX_ALLOCS"); ok && math.Round(allocs) > max {
		b.Fatalf("cache hit allocates %.2f objects/op, budget %v — the zero-alloc hit path regressed", allocs, max)
	}
}

// BenchmarkDiscussionHit measures one cache-hit serve of the viral-page
// shape (10k comments): a response-cache probe by a stack-built key,
// header assignment from precomputed slices, and the composed bytes
// written — one Write of the gzip member, or for a client that accepts
// no coding the page's three identity parts, which a page this size
// never joins. No rendering, no gzip, no allocation.
func BenchmarkDiscussionHit(b *testing.B) {
	s, req, _ := hitBenchServer(b)
	b.Run("identity", func(b *testing.B) { benchmarkHit(b, s, req) })
	zreq := req.Clone(req.Context())
	zreq.Header.Set("Accept-Encoding", "gzip")
	b.Run("gzip", func(b *testing.B) { benchmarkHit(b, s, zreq) })
}

// BenchmarkDiscussionHit304 measures the revalidation fast path: a hit
// whose If-None-Match matches the live entry's ETag writes a bodyless
// 304 — cheaper still than a full hit, and under the same zero-alloc
// budget.
func BenchmarkDiscussionHit304(b *testing.B) {
	s, warm, etag := hitBenchServer(b)
	req := httptest.NewRequest(http.MethodGet, warm.URL.String(), nil)
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		b.Fatalf("revalidation status = %d, want 304", rec.Code)
	}
	if rec.Body.Len() != 0 {
		b.Fatalf("304 carried %d body bytes", rec.Body.Len())
	}
	benchmarkHit(b, s, req)
}

// BenchmarkResidentPerComment is the memory ledger of the write path:
// resident bytes per posted comment on a durable primary at the
// default (1/64) scale with a replica tailing it through a Publisher.
// An op posts residentPosts comments through Server.ServeHTTP over the
// 200 most-commented URLs, one in twenty to a URL nobody has seen, waits
// until the replica has applied them and both WALs are durable, then
// reads every page that got a post once on each node — what the
// ledger's after-run check does after comment_storm. The growth of
// HeapInuse over a forced collection, per comment, is resident-B/comment
// (BENCH_RESIDENT_MAX_BYTES). Garbage and GC headroom are not in it: the
// gap between it and comment_storm's peak RSS per op is the collector's.
func BenchmarkResidentPerComment(b *testing.B) {
	const residentPosts, hotURLs = 20_000, 200
	primary := synth.Generate(synth.NewConfig(synth.DefaultScale, 1)).DB
	pers, err := eventlog.StartPersister(primary, filepath.Join(b.TempDir(), "primary"), eventlog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer pers.Close()
	web := dissenterweb.NewServer(primary, dissenterweb.WithURLRateLimit(0, time.Minute))
	writers := primary.ActiveUsers()[:64]
	for i, u := range writers {
		web.RegisterSession(fmt.Sprintf("w%d", i), dissenterweb.Session{Username: u.Username})
	}
	pub := httptest.NewServer(&replica.Publisher{DB: primary})
	defer pub.Close()
	var repWeb atomic.Pointer[dissenterweb.Server]
	var binds atomic.Int32
	rep, err := replica.Open(filepath.Join(b.TempDir(), "replica"), pub.URL, replica.Options{OnState: func(db *platform.DB) {
		repWeb.Store(dissenterweb.NewServer(db, dissenterweb.ReadOnly(), dissenterweb.WithURLRateLimit(0, time.Minute)))
		binds.Add(1)
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)
	caughtUp := func() bool {
		head := primary.EventSeq()
		return binds.Load() >= 2 && rep.Status().Connected && rep.Seq() == head &&
			pers.Durable() == head && rep.Durable() == head
	}
	for !caughtUp() {
		time.Sleep(time.Millisecond)
	}

	counts := map[ids.ObjectID]int{}
	primary.RangeComments(func(c *platform.Comment) bool {
		counts[c.URLID]++
		return true
	})
	var urls []*platform.CommentURL
	primary.RangeURLs(func(cu *platform.CommentURL) bool {
		urls = append(urls, cu)
		return true
	})
	slices.SortStableFunc(urls, func(x, y *platform.CommentURL) int { return counts[y.ID] - counts[x.ID] })
	hot := make([]string, hotURLs)
	for i := range hot {
		hot[i] = urls[i].URL
	}

	w := newDiscardRW()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for op := 0; op < b.N; op++ {
		posted := map[string]bool{}
		for i := 0; i < residentPosts; i++ {
			raw := hot[(i*7919+op)%hotURLs]
			if i%20 == 0 {
				raw = fmt.Sprintf("https://resident.example/%d/%d", op, i)
			}
			posted[raw] = true
			form := url.Values{"url": {raw}, "text": {fmt.Sprintf("resident comment %d: about the length the generated corpus posts, give or take a clause", i)}}
			req := httptest.NewRequest(http.MethodPost, "/discussion/comment", strings.NewReader(form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Header.Set("Cookie", fmt.Sprintf("session=w%d", i%len(writers)))
			web.ServeHTTP(w, req)
		}
		for !caughtUp() {
			time.Sleep(time.Millisecond)
		}
		for _, s := range []*dissenterweb.Server{web, repWeb.Load()} {
			for raw := range posted {
				req := httptest.NewRequest(http.MethodGet, "/discussion?url="+url.QueryEscape(raw), nil)
				req.Header.Set("Accept-Encoding", "gzip")
				s.ServeHTTP(w, req)
			}
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	perComment := (float64(ms1.HeapInuse) - float64(ms0.HeapInuse)) / float64(residentPosts*b.N)
	b.ReportMetric(perComment, "resident-B/comment")
	if max, ok := benchkit.EnvBudget(b, "BENCH_RESIDENT_MAX_BYTES"); ok && perComment > max {
		b.Fatalf("a posted comment keeps %.0f resident bytes across primary and replica, budget %v", perComment, max)
	}
}
