// Package respcache is a small sharded LRU + TTL cache for rendered
// responses. The HTTP simulators put it in front of their hot endpoints
// — comment listings, user profiles, trends — so that heavy concurrent
// crawler traffic hits a cached rendering instead of re-walking the
// platform store on every request.
//
// Keys are strings with a "<endpoint>|<subject>|<view>" layout by
// convention; a mutation invalidates every view of one subject with
// exact Invalidate calls over the enumerable view suffixes — or, for
// entries whose mutable parts the writer can recompute cheaply,
// patches the live entry in place with UpdateRev. Entries expire TTL
// after insertion regardless of use (no read-refresh): explicit
// invalidation is the primary mechanism and the TTL is only a
// backstop against writes that bypass it.
//
// # The Rev protocol
//
// Each content generation of a key is stamped with a Rev: the shard's
// invalidation count plus a shard-monotonic sequence number, minted
// under the same lock acquisition that makes the generation
// reachable. The lifecycle is:
//
//   - GetOrFillRev is the read path. A miss registers a flight and
//     mints the Rev under one lock acquisition, then runs the fill
//     outside the lock; N concurrent misses on one key run ONE fill
//     and the waiters are handed its result directly. The fill
//     composes the final response once (render, gzip, ETag from the
//     Rev) and the result is cached iff its flight is still the one
//     registered for the key when it completes.
//   - UpdateRev patches the entry in place AND re-stamps it with a
//     fresh Rev under the shard lock, so the patched generation gets a
//     new ETag atomically with the content change — a client holding
//     the previous ETag can never revalidate against the patched body.
//   - Invalidate drops the entry and detaches the key's in-flight
//     fill, if any — the whole staleness mechanism. The detached fill
//     still answers the waiters already enqueued on it, but may predate
//     the write that fired the invalidation, so it is never cached; a
//     miss arriving AFTER the invalidation starts a fresh fill instead
//     of adopting the doomed one. Invalidating other keys, however
//     many, never touches this key's flight.
//
// Because the sequence number only moves forward, two distinct
// generations of one key never share an ETag, which is the property
// the HTTP layer's If-None-Match handling relies on: a 304 is only
// ever issued when the client's validator equals the ETag of the
// currently cached generation. GetBytes is the companion zero-allocation
// read: it accepts the key as a scratch []byte so the serving hot path
// can probe the cache without building a string key.
//
// Like the platform store it fronts, the cache is split across
// independently locked shards by key hash, so concurrent hits on
// different pages do not contend.
//
// # Composing a generation
//
// What the serving layer caches per generation is a Composed (compose.go):
// identity body, gzip variant, ETag and ready-made header values, built
// once per fill or patch and outside every shard lock. Minting one
// costs what changed. No compose constructs a compressor — they are
// pooled — a segment under 4 KB builds no Huffman tables either (one
// fixed-Huffman block, fixed.go), and a page with a large append-only
// middle (a discussion's comment stream) is ONE gzip member of three
// segments: head, the middle's Stream, foot. The Stream is byte-aligned
// deflate blocks that reference nothing outside the segment, so the
// next generation's ComposeSegments copies them and deflates only the
// appended bytes, until the history-less part passes a fixed fraction
// of the one-pass size and the segment is compressed whole again.
// Compose(body) is the same composer on a page of one segment — the
// only kind with a joined identity body: a segmented page's identity
// bytes stay the three parts it was composed from, so no generation
// copies its HTML.
package respcache

import (
	"hash/maphash"
	"strconv"
	"sync"
	"time"
)

const cacheShards = 16

// shardSeed keys the shard hash. maphash guarantees Bytes(seed, b) ==
// String(seed, string(b)), which is what lets GetBytes route a scratch
// []byte key to the shard its string form was stored in.
var shardSeed = maphash.MakeSeed()

// Cache is a fixed-capacity sharded LRU with per-entry expiry. The zero
// value is not usable; construct with New.
type Cache[V any] struct {
	shards [cacheShards]lruShard[V]
}

// lruShard is one independently locked segment: an intrusive
// doubly-linked LRU list over a map. Capacity and eviction are per
// shard, so the cache-wide capacity is approximate under skewed key
// hashing.
type lruShard[V any] struct {
	mu      sync.Mutex
	maxSize int
	ttl     time.Duration
	now     func() time.Time
	items   map[string]*entry[V]
	// head is most recent.
	head, tail *entry[V]
	// epoch counts this shard's invalidations and seq its stamped
	// content generations (fills and in-place patches); together they
	// form a generation's Rev, and decide nothing else. seq never
	// rewinds, so ETags never repeat across generations in the shard.
	epoch, seq uint64
	// flights holds the in-progress GetOrFillRev per key: followers of a
	// live flight wait on done instead of rendering, and a fill Invalidate
	// detached from here mid-render is not cached.
	flights map[string]*flight[V]

	hits, misses uint64
}

// flight is one in-progress fill. val and failed are published before
// done closes, so waiters reading after <-done observe them. failed
// starts true and is cleared when fill returns: a fill that panicked
// still closes its flight, and its waiters render for themselves
// instead of adopting a value that does not exist.
type flight[V any] struct {
	done   chan struct{}
	val    V
	failed bool
}

type entry[V any] struct {
	key        string
	val        V
	expires    time.Time
	prev, next *entry[V]
}

// New builds a cache holding roughly maxSize entries, each valid for
// ttl. Both must be positive; like make with a negative length, a
// cache of no capacity or no lifetime is a programming error and
// panics.
func New[V any](maxSize int, ttl time.Duration) *Cache[V] {
	if maxSize <= 0 || ttl <= 0 {
		panic("respcache: New: size and TTL must be positive")
	}
	perShard := (maxSize + cacheShards - 1) / cacheShards
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].init(perShard, ttl)
	}
	return c
}

func (s *lruShard[V]) init(maxSize int, ttl time.Duration) {
	s.maxSize = maxSize
	s.ttl = ttl
	s.now = time.Now
	s.items = make(map[string]*entry[V], maxSize)
	s.flights = make(map[string]*flight[V])
}

func (c *Cache[V]) shard(key string) *lruShard[V] {
	return &c.shards[maphash.String(shardSeed, key)%cacheShards]
}

// Rev identifies one content generation of one cache key: the shard's
// invalidation count when the generation was stamped plus a
// shard-monotonic sequence number. Two distinct generations never
// share a Rev (Seq only moves forward), which makes ETag a sound
// strong validator: byte-different bodies always carry different tags.
// Stamped generations always have Seq >= 1.
type Rev struct {
	Epoch, Seq uint64
}

// ETag renders the Rev as a strong HTTP entity tag.
func (r Rev) ETag() string {
	return `"` + strconv.FormatUint(r.Epoch, 16) + "-" + strconv.FormatUint(r.Seq, 16) + `"`
}

// GetOrFillRev returns the cached value for key, or renders it with
// fill — coalescing concurrent misses so N requests racing on one cold
// key run ONE fill. fill receives the Rev stamped for the generation
// it is about to produce, minted under the same lock acquisition that
// published the fill's flight, and runs outside the shard lock (see
// the package comment's Rev protocol); it must not call back into the
// cache for the same key. The second return reports whether the
// caller was served without running fill itself (a cache hit or a
// coalesced wait); followers of a flight count as hits in Stats, since
// the cache saved their render. For the self-render fallback of a
// waiter whose flight leader panicked, fill still receives a freshly
// minted Rev so the response it composes is internally consistent — it
// just is never cached.
func (c *Cache[V]) GetOrFillRev(key string, fill func(Rev) V) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.items[key]; ok && !s.now().After(e.expires) {
		s.moveToFront(e)
		s.hits++
		v := e.val
		s.mu.Unlock()
		return v, true
	}
	if f, ok := s.flights[key]; ok {
		s.hits++
		s.mu.Unlock()
		<-f.done
		if f.failed {
			// The leader's fill panicked; render for ourselves rather
			// than serve a value that was never produced. Mint a real
			// stamp so the self-render's ETag is not the shared zero.
			s.mu.Lock()
			s.seq++
			rev := Rev{Epoch: s.epoch, Seq: s.seq}
			s.mu.Unlock()
			return fill(rev), false
		}
		return f.val, true
	}
	f := &flight[V]{done: make(chan struct{}), failed: true}
	s.flights[key] = f
	s.seq++
	rev := Rev{Epoch: s.epoch, Seq: s.seq}
	s.misses++
	s.mu.Unlock()

	// The flight MUST be resolved even if fill panics (an HTTP handler's
	// panic is recovered per request by net/http): an unclosed flight
	// would wedge every present and future waiter on this key forever.
	defer func() {
		s.mu.Lock()
		if s.flights[key] == f {
			delete(s.flights, key)
			if !f.failed {
				s.put(key, f.val)
			}
		}
		s.mu.Unlock()
		close(f.done)
	}()

	f.val = fill(rev)
	f.failed = false
	return f.val, false
}

// UpdateRev patches the live entry for key in place, leaving its LRU
// position and expiry untouched — the in-place alternative to
// Invalidate for entries whose mutable parts the writer can recompute
// cheaply (a vote tally span, an appended fragment). f runs under the
// shard lock and must be fast; it must not call back into the cache.
// f also receives a fresh Rev, minted under the shard lock atomically
// with the patch, which the patched value must adopt as its new
// generation identity (re-derive the ETag, drop the stale composed
// bytes). The re-stamp is what guarantees a client revalidating with
// the pre-patch ETag gets a full 200 with the new body, never a 304.
// Returns false when no unexpired entry exists — callers then fall
// back to Invalidate, which also discards any fill racing the write.
func (c *Cache[V]) UpdateRev(key string, f func(V, Rev) V) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[key]
	if !ok || s.now().After(e.expires) {
		return false
	}
	s.seq++
	//lint:ignore lockscope UpdateRev's contract: f patches the entry under the shard lock so racing patches serialize; it must be fast and not re-enter the cache
	e.val = f(e.val, Rev{Epoch: s.epoch, Seq: s.seq})
	return true
}

// GetBytes returns the cached value for key if present and unexpired,
// and marks it most recently used. The key is passed as a scratch
// []byte: the lookup uses the compiler's non-allocating
// map-index-by-converted-bytes form and hashes the bytes directly, so a
// caller that composes its key into a stack buffer probes the cache
// with zero heap allocations. A miss here does NOT count in Stats —
// GetBytes is the fast-path probe in front of GetOrFillRev, and the
// fall-through call is the one that does the miss accounting (and
// possibly still hits, via an entry or flight that appeared in
// between).
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	var zero V
	s := &c.shards[maphash.Bytes(shardSeed, key)%cacheShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[string(key)]
	if !ok {
		return zero, false
	}
	if s.now().After(e.expires) {
		s.remove(e)
		return zero, false
	}
	s.moveToFront(e)
	s.hits++
	return e.val, true
}

// Invalidate drops the entry for key, if any, and detaches the key's
// in-flight GetOrFillRev: its waiters still receive its value, but it
// is never cached and later misses start a fresh fill.
func (c *Cache[V]) Invalidate(key string) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	delete(s.flights, key)
	if e, ok := s.items[key]; ok {
		s.remove(e)
	}
}

// Len returns the number of live entries (including any not yet
// observed to be expired).
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats reports cumulative hit/miss counts.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// --- shard internals (callers hold s.mu unless noted) -------------------

func (s *lruShard[V]) put(key string, val V) {
	if e, ok := s.items[key]; ok {
		e.val = val
		e.expires = s.now().Add(s.ttl)
		s.moveToFront(e)
		return
	}
	e := &entry[V]{key: key, val: val, expires: s.now().Add(s.ttl)}
	s.items[key] = e
	s.pushFront(e)
	if len(s.items) > s.maxSize {
		s.remove(s.tail)
	}
}

func (s *lruShard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *lruShard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *lruShard[V]) moveToFront(e *entry[V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *lruShard[V]) remove(e *entry[V]) {
	s.unlink(e)
	delete(s.items, e.key)
}
