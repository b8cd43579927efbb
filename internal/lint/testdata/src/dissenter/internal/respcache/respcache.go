// Package respcache is a typecheck-only stub of the real response
// cache for lint fixtures: cachecoherence matches the Cache methods by
// receiver type and package path.
package respcache

type Cache[V any] struct{}

func (c *Cache[V]) Invalidate(key string) {}

type Rev struct {
	Epoch, Seq uint64
}

func (c *Cache[V]) GetOrFillRev(key string, fill func(Rev) V) (V, bool) {
	return fill(Rev{}), false
}

func (c *Cache[V]) UpdateRev(key string, f func(V, Rev) V) bool { return false }

func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	var zero V
	return zero, false
}
