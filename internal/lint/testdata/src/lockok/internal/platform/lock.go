package platform

import (
	"os"
	"sync"
)

type box struct {
	mu  sync.Mutex
	v   int
	now func() int // func-typed FIELD: package-owned, not caller-supplied
}

// get holds the lock defer-matched; the clock hook is a field, not a
// parameter, so calling it under the lock is fine.
func (b *box) get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.v + b.now()
}

// withCallback runs the caller's callback strictly after the unlock.
func (b *box) withCallback(f func()) {
	b.mu.Lock()
	b.v++
	b.mu.Unlock()
	f()
	os.Remove("x") // I/O outside the lock
}

// earlyReturn releases on the fast path in a branch AND has the
// same-block unlock for the slow path — the GetOrFillRev shape.
func (b *box) earlyReturn(cond bool) int {
	b.mu.Lock()
	if cond {
		v := b.v
		b.mu.Unlock()
		return v
	}
	b.v++
	b.mu.Unlock()
	return b.v
}

// deliberate documents a callback-under-lock contract with the
// directive escape hatch.
func (b *box) deliberate(f func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	//lint:ignore lockscope fixture: documented callback-under-lock contract
	f()
}
