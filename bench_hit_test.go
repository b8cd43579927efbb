// Cache-hit serving benchmarks: the zero-allocation edge path that
// composed-response cache entries enable. bench_concurrent_test.go
// pins the cache-MISS render cost (the fill is O(delta) in store
// mutations); these pin the HIT cost — a response-cache probe by a
// stack-built key, header assignment from precomputed slices, and a
// single Write of the composed body. No rendering, no gzip, no
// allocation. Run the parallel variants with -cpu 1,2,4 to see
// hit-path scaling (`make bench` does).
//
// With BENCH_HIT_MAX_ALLOCS=<n> set (CI uses 0), the serial hit
// benchmarks fail when a hit allocates more than n objects per
// request. The count is a MemStats Mallocs delta rounded to the
// nearest integer: sub-0.5/op background noise (runtime timers, GC
// bookkeeping amortized over the measured iterations) cannot flake a
// zero budget, while any real per-request allocation — necessarily
// ≥ 1/op — still fails it.
package dissenter_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"dissenter/internal/benchkit"
	"dissenter/internal/dissenterweb"
)

// hitAllocBudget enforces BENCH_HIT_MAX_ALLOCS against a measured
// allocations-per-op figure (see the package comment for the rounding
// rationale).
func hitAllocBudget(b *testing.B, allocsPerOp float64) {
	b.Helper()
	if max, ok := benchkit.EnvBudget(b, "BENCH_HIT_MAX_ALLOCS"); ok && math.Round(allocsPerOp) > max {
		b.Fatalf("cache hit allocates %.2f objects/op, budget %v — the zero-alloc hit path regressed",
			allocsPerOp, max)
	}
}

// hitBenchServer returns a default-cache server over the shared
// read-only fixture plus a warmed discussion request: one miss to fill
// and compose the entry, then the validator the 200 carried.
func hitBenchServer(b *testing.B, sc trendsScale) (*dissenterweb.Server, *http.Request, string) {
	b.Helper()
	f := trendsBenchFixture(b, sc)
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

// BenchmarkDiscussionHit measures one cache-hit serve of the viral-page
// shape (10k comments) — the acceptance gate is 0 allocs/op and at
// least 5x less time than DiscussionRenderMiss at the same scale,
// because a hit shovels composed bytes instead of rendering.
func BenchmarkDiscussionHit(b *testing.B) {
	sc := discussionScales[1]
	s, req, _ := hitBenchServer(b, sc)
	w := newDiscardRW()
	s.ServeHTTP(w, req) // pre-size w's header map so its buckets exist
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
	hitAllocBudget(b, allocsPerOp)
}

// BenchmarkDiscussionHit304 measures the revalidation fast path: a hit
// whose If-None-Match matches the live entry's ETag writes a bodyless
// 304 — cheaper still than a full hit, and under the same zero-alloc
// budget.
func BenchmarkDiscussionHit304(b *testing.B) {
	sc := discussionScales[1]
	s, warm, etag := hitBenchServer(b, sc)
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
	w := newDiscardRW()
	s.ServeHTTP(w, req)
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
	hitAllocBudget(b, allocsPerOp)
}

// benchmarkHitParallel drives the in-process hit path from every
// GOMAXPROCS worker at once — the scaling story the -cpu 1,2,4 sweep
// in `make bench` shows. One request and one discarding writer per
// goroutine; the server, its cache, and the composed entry are shared,
// so what this measures is contention on the read side of the shard
// lock and the atomic composed-pointer load.
func benchmarkHitParallel(b *testing.B, path string, f *trendsFixture) {
	s := dissenterweb.NewServer(f.db, dissenterweb.WithURLRateLimit(0, 0))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("warm %s status = %d", path, rec.Code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := newDiscardRW()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		for pb.Next() {
			s.ServeHTTP(w, req)
		}
	})
	b.StopTimer()
	if hits, misses := s.CacheStats(); hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses)*100, "cache_hit_pct")
	}
}

func BenchmarkDiscussionHitParallel(b *testing.B) {
	f := trendsBenchFixture(b, discussionScales[1])
	benchmarkHitParallel(b, "/discussion?url="+f.hot[0].URL, f)
}

func BenchmarkTrendsHitParallel(b *testing.B) {
	f := trendsBenchFixture(b, trendsScales[0])
	benchmarkHitParallel(b, "/trends", f)
}
