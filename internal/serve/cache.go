package serve

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"io"
	"strconv"
	"sync"

	"repro/internal/matrix"
)

// Key identifies one prediction: the cache key and the worker-pool
// sharding key. Pattern must be in canonical DSL form
// (patterns.Canonicalize) so that equivalent spellings collide.
type Key struct {
	Device  string
	DType   matrix.DType
	Pattern string
	Size    int
}

// RouteString returns the unambiguous string form of the key that the
// cluster layer partitions the keyspace on: NUL-separated fields, so
// no two distinct keys collide textually. Equivalent requests resolve
// to equal RouteStrings (the pattern is canonical), which is what
// pins a key to one ring owner.
func (k Key) RouteString() string {
	return k.Device + "\x00" + k.DType.String() + "\x00" + k.Pattern + "\x00" + strconv.Itoa(k.Size)
}

// RouteHash returns the canonical 64-bit hash of a route string: FNV-1a,
// stable across processes and Go versions. The cluster ring positions
// keys with this exact function, and cache handoff ranges
// (HashRange) are expressed over its output — serve and cluster must
// agree on it bit for bit, which is why it lives here, below both.
func RouteHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	return h.Sum64()
}

// RouteHash returns the key's position in the routing hash space.
func (k Key) RouteHash() uint64 { return RouteHash(k.RouteString()) }

// HashRange is a wrapping arc of the 64-bit routing hash space: the
// hashes h with After < h <= UpTo, walking clockwise (wrapping past
// zero when After >= UpTo, except that After == UpTo denotes the full
// space). Ring ownership diffs are expressed as lists of these arcs,
// and cache export/import filters entries through them.
type HashRange struct {
	After uint64 `json:"after"`
	UpTo  uint64 `json:"up_to"`
}

// Contains reports whether h lies on the arc.
func (r HashRange) Contains(h uint64) bool {
	switch {
	case r.After == r.UpTo:
		return true
	case r.After < r.UpTo:
		return h > r.After && h <= r.UpTo
	default:
		return h > r.After || h <= r.UpTo
	}
}

// HashRangesContain reports whether any of the ranges contains h.
func HashRangesContain(ranges []HashRange, h uint64) bool {
	for _, r := range ranges {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// shardHash returns a stable hash of the key for shard selection, so
// identical requests land on the same worker and the later ones find
// the first one's cache entry instead of re-simulating.
func (k Key) shardHash() uint64 {
	h := fnv.New64a()
	io.WriteString(h, k.Device)
	io.WriteString(h, "\x00")
	io.WriteString(h, k.Pattern)
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(k.DType))
	binary.LittleEndian.PutUint32(buf[4:], uint32(k.Size))
	h.Write(buf[:])
	return h.Sum64()
}

// lruCache is a mutex-guarded LRU map from Key to PredictResponse.
// Values are stored by value, so readers always get an independent
// copy and never alias cache internals.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[Key]*list.Element
}

type lruEntry struct {
	key  Key
	resp PredictResponse
}

func newLRUCache(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: make(map[Key]*list.Element, capacity),
	}
}

// Get returns a copy of the cached response and marks the entry most
// recently used.
func (c *lruCache) Get(k Key) (PredictResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return PredictResponse{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).resp, true
}

// Put inserts or refreshes an entry, evicting the least recently used
// one when over capacity.
func (c *lruCache) Put(k Key, resp PredictResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*lruEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry{key: k, resp: resp})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// export returns copies of the entries matching the predicate in
// eviction order — least recently used first — so that replaying Put
// over the result reproduces this cache's recency order exactly. The
// order is deterministic for a deterministic request history, which is
// what lets cache handoff preserve byte-identical hit/miss behaviour.
func (c *lruCache) export(match func(Key) bool) []lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		if e := el.Value.(*lruEntry); match(e.key) {
			out = append(out, *e)
		}
	}
	return out
}

// Purge removes every entry matching the predicate and returns how
// many were dropped. Used after retraining invalidates predictions.
func (c *lruCache) Purge(match func(Key) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var dropped int
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if k := el.Value.(*lruEntry).key; match(k) {
			c.order.Remove(el)
			delete(c.items, k)
			dropped++
		}
		el = next
	}
	return dropped
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
