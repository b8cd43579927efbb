package respcache

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fixedNow installs a controllable clock on every shard and returns the
// advance knob.
func fixedNow[V any](c *Cache[V]) func(time.Duration) {
	now := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	for i := range c.shards {
		c.shards[i].now = clock
	}
	return func(d time.Duration) { now = now.Add(d) }
}

// fill runs an uncontended GetOrFillRev that renders val, returning the
// value the cache answered with, the Rev the fill was stamped with
// (zero when no fill ran), and whether the caller was served without
// filling.
func fill[V any](c *Cache[V], key string, val V) (V, Rev, bool) {
	var stamped Rev
	v, served := c.GetOrFillRev(key, func(rev Rev) V { stamped = rev; return val })
	return v, stamped, served
}

func get[V any](c *Cache[V], key string) (V, bool) { return c.GetBytes([]byte(key)) }

func TestFillThenHit(t *testing.T) {
	c := New[string](32, time.Minute)
	if _, ok := get(c, "a"); ok {
		t.Fatal("hit on empty cache")
	}
	if v, rev, served := fill(c, "a", "1"); v != "1" || served || rev.Seq == 0 {
		t.Fatalf("cold fill = %q, rev %+v, served %v; want a stamped self-render", v, rev, served)
	}
	if v, ok := get(c, "a"); !ok || v != "1" {
		t.Fatalf("GetBytes(a) = %q, %v", v, ok)
	}
	// A second fill on a live key is a hit: the cached value wins.
	if v, _, served := fill(c, "a", "2"); v != "1" || !served {
		t.Fatalf("warm fill = %q, served %v; want the cached value", v, served)
	}
	// The GetBytes miss is not counted (the fall-through fill does the
	// miss accounting): one fill miss, then one probe hit and one fill hit.
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 2/1", hits, misses)
	}
}

// TestLRUEviction pins one shard's eviction order: exact LRU within a
// shard (cache-wide capacity is approximate by design).
func TestLRUEviction(t *testing.T) {
	c := New[int](3*cacheShards, time.Minute) // 3 entries per shard
	s := c.shard("a")
	b, cc, d := sameShardKey(c, s, 1), sameShardKey(c, s, 2), sameShardKey(c, s, 3)
	fill(c, "a", 1)
	fill(c, b, 2)
	fill(c, cc, 3)
	get(c, "a") // refresh a: b becomes least recent
	fill(c, d, 4)
	if _, ok := get(c, b); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", cc, d} {
		if _, ok := get(c, k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if c.Len() != 3 {
		t.Errorf("shard holds %d entries, want 3", c.Len())
	}
}

func TestTTLExpiry(t *testing.T) {
	c := New[string](32, time.Minute)
	advance := fixedNow(c)
	fill(c, "a", "1")
	advance(30 * time.Second)
	if _, ok := get(c, "a"); !ok {
		t.Fatal("expired too early")
	}
	// A hit does not refresh the TTL: 61s after the fill the entry is gone.
	advance(31 * time.Second)
	if _, ok := get(c, "a"); ok {
		t.Fatal("entry outlived its TTL")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry still counted: Len = %d", c.Len())
	}
	// A refill restarts the TTL.
	if v, _, served := fill(c, "a", "2"); v != "2" || served {
		t.Fatalf("refill of an expired key = %q, served %v", v, served)
	}
	advance(59 * time.Second)
	if v, ok := get(c, "a"); !ok || v != "2" {
		t.Fatal("refilled entry should be live")
	}
}

// TestExpiredEntryRefilledInPlace: a fill that finds its key's entry
// expired but not yet reaped replaces it rather than adding a second.
func TestExpiredEntryRefilledInPlace(t *testing.T) {
	c := New[string](32, time.Minute)
	advance := fixedNow(c)
	fill(c, "a", "1")
	advance(61 * time.Second)
	if v, _, served := fill(c, "a", "2"); v != "2" || served {
		t.Fatalf("fill over an expired entry = %q, served %v", v, served)
	}
	if v, ok := get(c, "a"); !ok || v != "2" || c.Len() != 1 {
		t.Fatalf("after refill: %q, %v, Len %d; want the new value in one entry", v, ok, c.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c := New[string](32, time.Minute)
	fill(c, "disc|https://x.test/|00", "a")
	fill(c, "disc|https://x.test/|10", "b")
	fill(c, "trends|00", "d")

	c.Invalidate("trends|00")
	if _, ok := get(c, "trends|00"); ok {
		t.Error("Invalidate left the entry")
	}
	// Invalidating one view of a subject leaves the others.
	c.Invalidate("disc|https://x.test/|00")
	if _, ok := get(c, "disc|https://x.test/|00"); ok {
		t.Error("invalidated view survived")
	}
	if _, ok := get(c, "disc|https://x.test/|10"); !ok {
		t.Error("sibling view dropped")
	}
}

// slowFill starts a GetOrFillRev for key on its own goroutine and
// parks its fill until release is closed; filling is closed once the
// fill is running (its flight published, its Rev stamped). The
// returned channel delivers what the caller was answered with.
func slowFill(c *Cache[string], key, val string) (filling, release chan struct{}, done chan string) {
	filling, release, done = make(chan struct{}), make(chan struct{}), make(chan string, 1)
	go func() {
		v, _ := c.GetOrFillRev(key, func(Rev) string {
			close(filling)
			<-release
			return val
		})
		done <- v
	}()
	return filling, release, done
}

// TestFillRacingInvalidateNotCached: a fill in flight when its key is
// invalidated still answers its waiters, but its result must never be
// cached — it may predate the write that fired the invalidation — and
// the next request re-renders.
func TestFillRacingInvalidateNotCached(t *testing.T) {
	c := New[string](32, time.Minute)
	filling, release, done := slowFill(c, "disc|u|00", "pre-write render")
	<-filling
	c.Invalidate("disc|u|00") // the write path fires mid-fill
	close(release)
	if v := <-done; v != "pre-write render" {
		t.Fatalf("waiter got %q", v)
	}
	if _, ok := get(c, "disc|u|00"); ok {
		t.Fatal("fill racing an invalidation was cached stale")
	}
	if v, _, served := fill(c, "disc|u|00", "post-write render"); v != "post-write render" || served {
		t.Fatalf("post-invalidation request = %q, served %v; want a fresh fill", v, served)
	}
	if v, ok := get(c, "disc|u|00"); !ok || v != "post-write render" {
		t.Fatalf("fresh fill not cached: %q %v", v, ok)
	}
}

// TestFillSurvivesUnrelatedInvalidate: invalidating a DIFFERENT key —
// even one in the same shard, which bumps the shared epoch — must not
// discard an in-flight fill, or steady writes anywhere would starve
// the whole cache.
func TestFillSurvivesUnrelatedInvalidate(t *testing.T) {
	c := New[string](32, time.Minute)
	filling, release, done := slowFill(c, "disc|u|01", "unrelated")
	<-filling
	c.Invalidate(sameShardKey(c, c.shard("disc|u|01"), 0))
	close(release)
	<-done
	if v, ok := get(c, "disc|u|01"); !ok || v != "unrelated" {
		t.Fatalf("unrelated invalidation discarded an in-flight fill: %q %v", v, ok)
	}
}

// TestFillStalenessIsPerKey: whether an in-flight fill is cached
// depends on its own key alone. Parked across more invalidations of
// OTHER same-shard keys than the shard holds entries (the storm a
// comment-heavy workload produces), it is still cached; one
// invalidation of its own key still discards it.
func TestFillStalenessIsPerKey(t *testing.T) {
	c := New[string](16, time.Minute) // 1 entry per shard
	key := "victim"
	s := c.shard(key)
	for _, own := range []bool{true, false} { // cached case last: a hit would never fill again
		filling, release, done := slowFill(c, key, "parked")
		<-filling
		for i := 0; i < 4*s.maxSize+4; i++ {
			c.Invalidate(sameShardKey(c, s, i))
		}
		if own {
			c.Invalidate(key)
		}
		close(release)
		<-done
		if _, ok := get(c, key); ok == own {
			t.Fatalf("own key invalidated=%v, but fill cached=%v", own, ok)
		}
	}
}

// sameShardKey generates the i-th probe key landing in shard s.
func sameShardKey[V any](c *Cache[V], s *lruShard[V], i int) string {
	for j := i * 1000; ; j++ {
		k := fmt.Sprintf("probe%d", j)
		if c.shard(k) == s {
			return k
		}
	}
}

// TestFillSingleflight pins the stampede contract: with one lead fill
// blocked mid-render, every concurrent miss on the key coalesces onto
// it — exactly one fill runs, and everyone gets its value. (A
// goroutine arriving after the fill completes hits the now-cached
// entry, so the fill count stays 1 regardless of scheduling.)
func TestFillSingleflight(t *testing.T) {
	c := New[string](32, time.Minute)
	filling, release, lead := slowFill(c, "disc|u|00", "rendered once")
	<-filling

	const followers = 16
	got := make(chan string, followers)
	var launched sync.WaitGroup
	for i := 0; i < followers; i++ {
		launched.Add(1)
		go func() {
			launched.Done()
			v, served := c.GetOrFillRev("disc|u|00", func(Rev) string {
				t.Error("follower ran its own fill")
				return "duplicate render"
			})
			if !served {
				t.Error("follower reported a self-rendered miss")
			}
			got <- v
		}()
	}
	launched.Wait()
	close(release)
	if v := <-lead; v != "rendered once" {
		t.Fatalf("lead got %q", v)
	}
	for i := 0; i < followers; i++ {
		if v := <-got; v != "rendered once" {
			t.Fatalf("follower got %q", v)
		}
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Fatalf("%d fills ran, want 1", misses)
	}
	if v, ok := get(c, "disc|u|00"); !ok || v != "rendered once" {
		t.Fatalf("fill result not cached: %q %v", v, ok)
	}
}

// TestPanickingFillDoesNotWedgeKey: a fill that panics (an HTTP
// handler's panic is recovered per request by net/http) must resolve
// its flight — waiters render for themselves under a freshly minted
// Rev, the panic propagates to the leader, nothing is cached, and the
// key keeps working afterwards.
func TestPanickingFillDoesNotWedgeKey(t *testing.T) {
	c := New[string](32, time.Minute)
	filling := make(chan struct{})
	release := make(chan struct{})
	leadDone := make(chan any, 1)
	var leadRev Rev
	go func() {
		defer func() { leadDone <- recover() }()
		c.GetOrFillRev("disc|u|00", func(rev Rev) string {
			leadRev = rev
			close(filling)
			<-release
			panic("render exploded")
		})
	}()
	<-filling
	waiter := make(chan string, 1)
	var waiterRev Rev
	go func() {
		v, served := c.GetOrFillRev("disc|u|00", func(rev Rev) string { waiterRev = rev; return "waiter fallback" })
		if served {
			t.Error("waiter of a failed flight reported being served")
		}
		waiter <- v
	}()
	// Give the waiter a moment to coalesce onto the doomed flight, then
	// let the leader explode.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if r := <-leadDone; r == nil {
		t.Fatal("panic did not propagate to the filler")
	}
	if v := <-waiter; v != "waiter fallback" {
		t.Fatalf("waiter got %q", v)
	}
	if waiterRev.Seq <= leadRev.Seq {
		t.Fatalf("waiter self-rendered under Rev %+v, not newer than the failed leader's %+v", waiterRev, leadRev)
	}
	if _, ok := get(c, "disc|u|00"); ok {
		t.Fatal("panicked fill left a cached value")
	}
	// The key must be fully functional again.
	if v, _, _ := fill(c, "disc|u|00", "recovered"); v != "recovered" {
		t.Fatalf("post-panic fill got %q", v)
	}
	if v, ok := get(c, "disc|u|00"); !ok || v != "recovered" {
		t.Fatalf("post-panic fill not cached: %q %v", v, ok)
	}
}

// TestFillConcurrent hammers GetOrFillRev/Invalidate/UpdateRev from
// many goroutines; run under -race. The invariant checked at the end
// is the coalescing ledger: every miss runs exactly one fill.
func TestFillConcurrent(t *testing.T) {
	c := New[int](64, time.Minute)
	var fillCount int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key%d", i%16)
				c.GetOrFillRev(k, func(Rev) int {
					mu.Lock()
					fillCount++
					mu.Unlock()
					return i
				})
				switch {
				case i%37 == 0:
					c.Invalidate(k)
				case i%11 == 0:
					c.UpdateRev(k, func(v int, _ Rev) int { return v + 1 })
				}
			}
		}(g)
	}
	wg.Wait()
	_, misses := c.Stats()
	mu.Lock()
	defer mu.Unlock()
	if uint64(fillCount) != misses {
		t.Errorf("fills = %d, misses = %d: every miss must run exactly one fill", fillCount, misses)
	}
}

func TestUpdateRevPatchesLiveEntriesOnly(t *testing.T) {
	c := New[string](32, time.Minute)
	advance := fixedNow(c)
	if c.UpdateRev("a", func(v string, _ Rev) string { return v + "!" }) {
		t.Fatal("UpdateRev patched a missing entry")
	}
	_, filled, _ := fill(c, "a", "v1")
	var patched Rev
	if !c.UpdateRev("a", func(v string, rev Rev) string { patched = rev; return v + "+patch" }) {
		t.Fatal("UpdateRev missed a live entry")
	}
	if v, _ := get(c, "a"); v != "v1+patch" {
		t.Fatalf("patched value = %q", v)
	}
	// The patch is a new generation: same epoch (nothing was
	// invalidated), strictly later Seq, hence a different ETag.
	if patched.Epoch != filled.Epoch || patched.Seq <= filled.Seq || patched.ETag() == filled.ETag() {
		t.Fatalf("patch stamped %+v after fill %+v; want a fresh Rev in the same epoch", patched, filled)
	}
	// An invalidation moves the epoch, so no later generation of the
	// key can repeat a pre-invalidation Rev.
	c.Invalidate("a")
	if _, refilled, _ := fill(c, "a", "v2"); refilled.Epoch <= patched.Epoch || refilled.Seq <= patched.Seq {
		t.Fatalf("post-invalidation fill stamped %+v, not past %+v", refilled, patched)
	}
	// Patching must not extend the entry's life.
	advance(30 * time.Second)
	c.UpdateRev("a", func(v string, _ Rev) string { return v })
	advance(31 * time.Second)
	if c.UpdateRev("a", func(string, Rev) string { return "resurrected" }) {
		t.Fatal("UpdateRev patched an expired entry")
	}
	if _, ok := get(c, "a"); ok {
		t.Fatal("expired entry served after failed patch")
	}
}

// TestNewRejectsNonPositive: there is no disabled mode; a cache of no
// capacity or no lifetime is refused at construction.
func TestNewRejectsNonPositive(t *testing.T) {
	for _, args := range []struct {
		size int
		ttl  time.Duration
	}{{0, time.Minute}, {-1, time.Minute}, {10, 0}, {10, -time.Second}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %v) did not panic", args.size, args.ttl)
				}
			}()
			New[string](args.size, args.ttl)
		}()
	}
}

// TestConcurrentAccess drives more keys than the cache holds through
// fills, probes and invalidations at once; run under -race. Capacity
// must hold throughout.
func TestConcurrentAccess(t *testing.T) {
	c := New[int](64, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key%d", (g*500+i)%100)
				c.GetOrFillRev(k, func(Rev) int { return i })
				c.GetBytes([]byte(k))
				if i%50 == 0 {
					c.Invalidate(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}
