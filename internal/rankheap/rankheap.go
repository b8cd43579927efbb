// Package rankheap implements the order structures behind the store's
// write-maintained "top N" materialized views. Two structures share one
// heap core, and which one a view needs is decided by whether its
// scores are monotone:
//
//   - TopK is a bounded top-K ordered set — a binary min-heap (worst
//     member at the root) paired with a key→slot position map, so
//     membership checks, in-place rank updates, and evict-the-worst
//     insertions are all O(log K) with K small and fixed. It holds at
//     most K members, which is only correct for MONOTONE scores: when
//     a member is evicted, exactly K strictly-better members remain,
//     and if scores only ever improve, the evicted key can re-enter
//     the true top K only by improving its own score — which is
//     exactly the moment the caller calls Update again. The Gab Trends
//     ranking (comment counts are append-only) lives in this regime.
//
//   - Exact is the non-monotone fallback: an exact top-K over scores
//     that may DECREASE (net votes drop on a downvote). Bounding is
//     impossible there — an evicted key's score would be forgotten,
//     and a later decrease inside the top could make that key the
//     rightful member again with nobody left to re-offer it — so
//     Exact remembers every key ever offered, split into an elite
//     min-heap of the current top K and an overflow max-heap of the
//     rest. Updates (including decrease-key) are O(log n) with at
//     most one promotion/demotion swap; reading the top K stays O(K).
//     Memory is O(total keys), the price of exactness.
//
// Neither structure is safe for concurrent use; callers wrap them in a
// short lock (the platform views hold one mutex per ranking).
package rankheap

// member is one keyed value held by a heap.
type member[K comparable, V any] struct {
	key K
	val V
}

// heapCore is the shared binary-heap machinery: a slice-backed heap
// ordered by `above` (parent above child) plus a key→index position
// map kept in sync by every swap. TopK uses one core as a min-heap;
// Exact pairs a min-heap core with a max-heap core.
type heapCore[K comparable, V any] struct {
	above func(a, b V) bool
	heap  []member[K, V]
	pos   map[K]int
}

func newHeapCore[K comparable, V any](capacity int, above func(a, b V) bool) heapCore[K, V] {
	return heapCore[K, V]{
		above: above,
		heap:  make([]member[K, V], 0, capacity),
		pos:   make(map[K]int, capacity),
	}
}

func (h *heapCore[K, V]) len() int { return len(h.heap) }

func (h *heapCore[K, V]) get(key K) (V, bool) {
	if i, ok := h.pos[key]; ok {
		return h.heap[i].val, true
	}
	var zero V
	return zero, false
}

// root returns the heap's top member; the heap must be non-empty.
func (h *heapCore[K, V]) root() member[K, V] { return h.heap[0] }

// push inserts a key that must not already be a member.
func (h *heapCore[K, V]) push(key K, val V) {
	h.heap = append(h.heap, member[K, V]{key, val})
	h.pos[key] = len(h.heap) - 1
	h.siftUp(len(h.heap) - 1)
}

// update replaces an existing member's value and fixes its rank.
func (h *heapCore[K, V]) update(key K, val V) {
	i := h.pos[key]
	h.heap[i].val = val
	h.fix(i)
}

// popRoot removes and returns the top member.
func (h *heapCore[K, V]) popRoot() member[K, V] {
	top := h.heap[0]
	delete(h.pos, top.key)
	last := len(h.heap) - 1
	if last > 0 {
		h.heap[0] = h.heap[last]
		h.pos[h.heap[0].key] = 0
	}
	h.heap = h.heap[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

// replaceRoot swaps the top member for a new one in O(log n) — an
// eviction that skips the separate pop+push.
func (h *heapCore[K, V]) replaceRoot(key K, val V) {
	delete(h.pos, h.heap[0].key)
	h.heap[0] = member[K, V]{key, val}
	h.pos[key] = 0
	h.siftDown(0)
}

// appendTo appends every member's value to dst (in heap order, NOT
// rank order) and returns the extended slice; callers sort.
func (h *heapCore[K, V]) appendTo(dst []V) []V {
	for i := range h.heap {
		dst = append(dst, h.heap[i].val)
	}
	return dst
}

func (h *heapCore[K, V]) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i].key] = i
	h.pos[h.heap[j].key] = j
}

func (h *heapCore[K, V]) fix(i int) {
	h.siftDown(i)
	h.siftUp(i)
}

func (h *heapCore[K, V]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.above(h.heap[i].val, h.heap[parent].val) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *heapCore[K, V]) siftDown(i int) {
	n := len(h.heap)
	for {
		top := i
		if l := 2*i + 1; l < n && h.above(h.heap[l].val, h.heap[top].val) {
			top = l
		}
		if r := 2*i + 2; r < n && h.above(h.heap[r].val, h.heap[top].val) {
			top = r
		}
		if top == i {
			return
		}
		h.swap(i, top)
		i = top
	}
}

// TopK keeps the best (according to better) K values ever offered,
// keyed by K-type keys. Correct only for monotone scores — see the
// package comment. The zero value is not usable; construct with New.
type TopK[K comparable, V any] struct {
	limit  int
	better func(a, b V) bool
	core   heapCore[K, V] // min-heap: root is the worst member
}

// New builds a TopK holding at most limit values, ordered by better
// (which must be a strict total order over the values that will be
// offered; ties make membership nondeterministic).
func New[K comparable, V any](limit int, better func(a, b V) bool) *TopK[K, V] {
	if limit <= 0 {
		panic("rankheap: limit must be positive")
	}
	return &TopK[K, V]{
		limit:  limit,
		better: better,
		// min-heap: the parent is the member the child beats.
		core: newHeapCore[K](limit, func(a, b V) bool { return better(b, a) }),
	}
}

// Len returns the current number of members.
func (t *TopK[K, V]) Len() int { return t.core.len() }

// Get returns the value stored for key, if it is a member.
func (t *TopK[K, V]) Get(key K) (V, bool) { return t.core.get(key) }

// Update offers (key, val) to the set. An existing member's value is
// replaced and its rank fixed in place; a new key is admitted if the
// set is under its limit or val beats the current worst member, which
// is then evicted. It reports whether key is a member afterwards.
func (t *TopK[K, V]) Update(key K, val V) bool {
	if _, ok := t.core.pos[key]; ok {
		t.core.update(key, val)
		return true
	}
	if t.core.len() < t.limit {
		t.core.push(key, val)
		return true
	}
	if !t.better(val, t.core.root().val) {
		return false
	}
	t.core.replaceRoot(key, val)
	return true
}

// AppendTo appends every member's value to dst (in heap order, NOT
// rank order) and returns the extended slice; callers sort.
func (t *TopK[K, V]) AppendTo(dst []V) []V { return t.core.appendTo(dst) }
