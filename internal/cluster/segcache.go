package cluster

import (
	"slices"
	"sync"
)

// Segment caching on both sides of the wire. A worker keeps the
// segments it was shipped in a content-addressed LRU (maxCachedSegments
// entries); the coordinator keeps, per endpoint, an LRU of the digests
// that worker acknowledged — the residency hint that decides whether an
// assignment ships the payload or only the digest. The hint lives on
// the endpoint, not the pool, so it outlives any one job: pools over
// the same endpoints share it, and a fresh pool over warm workers ships
// digests only. It is only a hint. A worker that lost a segment
// (restart, eviction, DropSegmentCache) answers need-segment; the
// coordinator drops that one digest and re-ships the payload once.

// digestLRU maps segment digests to values and evicts the least
// recently used entry beyond maxCachedSegments. The zero value is an
// empty cache. Not safe for concurrent use.
type digestLRU[V any] struct {
	vals  map[uint64]V
	order []uint64 // least recently used first
}

// has reports whether d is cached, without refreshing its recency.
func (c *digestLRU[V]) has(d uint64) bool {
	_, ok := c.vals[d]
	return ok
}

// get returns the value under d and marks it most recently used.
func (c *digestLRU[V]) get(d uint64) (V, bool) {
	v, ok := c.vals[d]
	if ok {
		c.touch(d)
	}
	return v, ok
}

// put stores v under d as the most recently used entry, evicting the
// least recently used one when over capacity.
func (c *digestLRU[V]) put(d uint64, v V) {
	if _, ok := c.vals[d]; ok {
		c.vals[d] = v
		c.touch(d)
		return
	}
	if c.vals == nil {
		c.vals = map[uint64]V{}
	}
	c.vals[d] = v
	c.order = append(c.order, d)
	if len(c.order) > maxCachedSegments {
		delete(c.vals, c.order[0])
		c.order = slices.Delete(c.order, 0, 1)
	}
}

// remove forgets d.
func (c *digestLRU[V]) remove(d uint64) {
	if _, ok := c.vals[d]; !ok {
		return
	}
	delete(c.vals, d)
	i := slices.Index(c.order, d)
	c.order = slices.Delete(c.order, i, i+1)
}

func (c *digestLRU[V]) touch(d uint64) {
	i := slices.Index(c.order, d)
	c.order = append(slices.Delete(c.order, i, i+1), d)
}

func (c *digestLRU[V]) len() int { return len(c.vals) }

// residency is the coordinator's hint of which segment digests one
// worker holds, mirroring the worker's cache: an acknowledged attempt
// adds (or refreshes) its digest, a need-segment reply drops it.
// Guarded by its own mutex because every pool over the endpoint shares
// it.
type residency struct {
	mu   sync.Mutex
	segs digestLRU[struct{}]
}

// holds reports whether the worker is believed to cache digest. It
// does not refresh recency: acquire scores every free worker with it.
func (r *residency) holds(digest uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.segs.has(digest)
}

// add records that the worker acknowledged an attempt over digest.
func (r *residency) add(digest uint64) {
	r.mu.Lock()
	r.segs.put(digest, struct{}{})
	r.mu.Unlock()
}

// drop forgets digest after the worker answered need-segment for it.
func (r *residency) drop(digest uint64) {
	r.mu.Lock()
	r.segs.remove(digest)
	r.mu.Unlock()
}
