package platform

import (
	"hash/maphash"
	"sync"

	"dissenter/internal/ids"
)

// The store splits every index across numShards independently locked
// segments, keyed by a hash of the index key. Reads on different shards
// never contend, and reads on the same shard contend only with writes to
// that shard — which is what lets the HTTP simulators serve many
// concurrent crawler clients against one DB.
const (
	shardBits = 4
	numShards = 1 << shardBits
	shardMask = numShards - 1
)

// shardedMap is a hash-sharded map with a sync.RWMutex per shard. V is
// stored by value; a slice-valued map's update must never write an
// element a reader's header covers (see update): replace the slice, or
// append past every header handed out.
type shardedMap[K comparable, V any] struct {
	hash   func(K) uint64
	shards [numShards]struct {
		mu sync.RWMutex
		m  map[K]V
	}
}

// newShardedMap returns an empty map with room for about size entries
// (each shard is sized for its share), so a bulk build never rehashes.
func newShardedMap[K comparable, V any](hash func(K) uint64, size int) *shardedMap[K, V] {
	s := &shardedMap[K, V]{hash: hash}
	for i := range s.shards {
		s.shards[i].m = make(map[K]V, size/numShards)
	}
	return s
}

func (s *shardedMap[K, V]) shard(k K) *struct {
	mu sync.RWMutex
	m  map[K]V
} {
	return &s.shards[s.hash(k)&shardMask]
}

func (s *shardedMap[K, V]) get(k K) (V, bool) {
	sh := s.shard(k)
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	return v, ok
}

func (s *shardedMap[K, V]) set(k K, v V) {
	sh := s.shard(k)
	sh.mu.Lock()
	sh.m[k] = v
	sh.mu.Unlock()
}

// update replaces the value under k with f(old). Concurrent readers
// may still hold old, so f must not write any element within its
// length; appending into its spare capacity is safe, because update is
// the only writer and readers pin the length they fetched.
func (s *shardedMap[K, V]) update(k K, f func(V) V) {
	sh := s.shard(k)
	sh.mu.Lock()
	//lint:ignore lockscope update's contract: f runs under the shard lock so the replace is atomic; it must be fast and touch no other shard
	sh.m[k] = f(sh.m[k])
	sh.mu.Unlock()
}

// forEach calls f for every entry until f returns false, read-locking
// one shard at a time. f runs under the shard's read lock and must not
// touch the same map. Because shards are visited in turn this is NOT a
// point-in-time snapshot: entries written to an already-visited shard
// during the walk are missed. Bulk readers on quiesced stores only.
func (s *shardedMap[K, V]) forEach(f func(K, V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			//lint:ignore lockscope forEach's contract: f runs under the shard read lock and must not touch the same map
			if !f(k, v) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// reset drops every entry, one shard at a time. Concurrent readers
// holding values fetched earlier keep them (values are pointers or
// copies, never aliased map internals); a reader probing mid-reset
// simply misses and re-creates. Used by size-bounded lazy caches
// (pageindex) whose contents can always be rebuilt from the base
// indexes.
func (s *shardedMap[K, V]) reset() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.m = make(map[K]V)
		sh.mu.Unlock()
	}
}

// getOrCreate returns the value under k, calling create to build and
// publish it if absent. create runs under the shard's write lock, so at
// most one caller creates per key; its side effects (inserts into other
// indexes) complete before the value becomes visible here.
func (s *shardedMap[K, V]) getOrCreate(k K, create func() V) (V, bool) {
	sh := s.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if v, ok := sh.m[k]; ok {
		return v, false
	}
	//lint:ignore lockscope getOrCreate's contract: create runs under the shard write lock so at most one caller creates per key
	v := create()
	sh.m[k] = v
	return v, true
}

// --- hash functions -----------------------------------------------------

// hashSeed keys every shard hash of this process. Placement is private
// to the process: nothing may depend on which shard a key lands in.
var hashSeed = maphash.MakeSeed()

func hashGabID(id ids.GabID) uint64 { return maphash.Comparable(hashSeed, id) }

func hashObjectID(id ids.ObjectID) uint64 { return maphash.Bytes(hashSeed, id[:]) }

func hashString(s string) uint64 { return maphash.String(hashSeed, s) }
