package rankheap

// Exact is an exact top-K ordered set over scores that may move in
// either direction — the non-monotone counterpart of TopK. Every key
// ever offered stays resident, split across two tiers:
//
//   - elite: a min-heap of the current top limit members (worst at the
//     root), exactly what a reader wants to page through;
//   - overflow: a max-heap of every other member (best at the root).
//
// The tier invariant is that no elite member is worse than any
// overflow member, and the elite tier is full whenever the overflow
// tier is non-empty. A single Update changes one key's value and then
// restores the invariant with at most one root swap: a decreased
// elite member can only violate it by becoming the elite root, and an
// increased overflow member can only violate it by becoming the
// overflow root (any overflow member beating the worst elite must be
// the overflow maximum, since every other overflow member was no
// better than the elite root before the update). So updates —
// including decrease-key, the case TopK's bounded eviction argument
// cannot survive — are O(log n), and reading the top K is O(K).
//
// Memory is O(total keys offered): exactness under non-monotone
// scores requires remembering evicted scores, because a later decrease
// inside the top K can make any previously demoted key the rightful
// member again with no caller-side event to re-offer it.
//
// An Exact is not safe for concurrent use; callers wrap it in a short
// lock.
type Exact[K comparable, V any] struct {
	limit  int
	better func(a, b V) bool
	elite  heapCore[K, V] // min-heap: root is the worst of the top K
	over   heapCore[K, V] // max-heap: root is the best of the rest
}

// NewExact builds an Exact serving the top limit values, ordered by
// better (a strict total order over the values that will be offered;
// ties make the published order nondeterministic).
func NewExact[K comparable, V any](limit int, better func(a, b V) bool) *Exact[K, V] {
	if limit <= 0 {
		panic("rankheap: limit must be positive")
	}
	return &Exact[K, V]{
		limit:  limit,
		better: better,
		elite:  newHeapCore[K](limit, func(a, b V) bool { return better(b, a) }),
		over:   newHeapCore[K](0, better),
	}
}

// Len returns the total number of members across both tiers.
func (e *Exact[K, V]) Len() int { return e.elite.len() + e.over.len() }

// Get returns the value stored for key, if it has ever been offered.
func (e *Exact[K, V]) Get(key K) (V, bool) {
	if v, ok := e.elite.get(key); ok {
		return v, true
	}
	return e.over.get(key)
}

// Update offers (key, val) to the set: a new key is inserted, an
// existing key's value is replaced wherever it lives (its score may
// have moved either way), and members are promoted or demoted across
// the tier boundary as needed to keep the top tier exact.
func (e *Exact[K, V]) Update(key K, val V) {
	if _, ok := e.elite.pos[key]; ok {
		e.elite.update(key, val)
	} else if _, ok := e.over.pos[key]; ok {
		e.over.update(key, val)
	} else if e.elite.len() < e.limit {
		// The elite tier is full whenever overflow is non-empty, so an
		// under-limit insert never needs a rebalance.
		e.elite.push(key, val)
		return
	} else {
		e.over.push(key, val)
	}
	e.rebalance()
}

// rebalance restores the tier invariant after a single-key change. At
// most one swap is ever needed (see the type comment); the loop form
// just makes that self-evidently safe.
func (e *Exact[K, V]) rebalance() {
	for e.over.len() > 0 && e.better(e.over.root().val, e.elite.root().val) {
		worst := e.elite.popRoot()
		best := e.over.popRoot()
		e.elite.push(best.key, best.val)
		e.over.push(worst.key, worst.val)
	}
}

// AppendTopTo appends the top tier's values to dst (in heap order, NOT
// rank order) and returns the extended slice; callers sort.
func (e *Exact[K, V]) AppendTopTo(dst []V) []V { return e.elite.appendTo(dst) }
