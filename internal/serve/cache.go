package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// Metric names the cache and server publish into the service registry.
const (
	MetricCacheHits      = "serve_cache_hits"
	MetricCacheMisses    = "serve_cache_misses"
	MetricCacheEvictions = "serve_cache_evictions"
	MetricCacheBytes     = "serve_cache_bytes"
	MetricJobsSubmitted  = "serve_jobs_submitted"
	MetricJobsRejected   = "serve_jobs_rejected"
	MetricJobsCompleted  = "serve_jobs_completed"
	MetricJobsCancelled  = "serve_jobs_cancelled"
	MetricJobsFailed     = "serve_jobs_failed"
	MetricTailUpdates    = "serve_tail_updates"
	MetricQueueWaitNs    = "serve_queue_wait_ns"
)

// cacheKey addresses one segment's summaries: the segment's content
// digest joined with the query schema key. Content addressing makes
// invalidation structural — appended data arrives as new segments with
// new digests, and a replaced segment simply stops being asked for;
// stale entries age out of the LRU instead of being hunted down.
type cacheKey struct {
	digest uint64
	schema string
}

// Bundles is one segment's per-key encoded summary bundles under one
// query schema, packed into one exact-size buffer: group i's bundle is
// keyed keys[i]. A cold run's bundles point into the shuffle's run
// buffers, which a map per segment would keep alive; packing copies
// them out, so a cache entry holds its payload and little else.
// Immutable once built, so readers keep using a set safely even after
// its cache entry is evicted mid-fold.
type Bundles struct {
	keys []string
	ends []uint32 // bundle i is data[ends[i-1]:ends[i]]
	data []byte
}

// packBundles copies one segment's bundles into a Bundles.
func packBundles(keys []string, vals [][]byte) *Bundles {
	size := 0
	for _, v := range vals {
		size += len(v)
	}
	b := &Bundles{keys: keys, ends: make([]uint32, len(vals)), data: make([]byte, 0, size)}
	for i, v := range vals {
		b.data = append(b.data, v...)
		b.ends[i] = uint32(len(b.data))
	}
	return b
}

// Len returns the number of groups.
func (b *Bundles) Len() int { return len(b.keys) }

// At returns group i's key and encoded summary bundle. The bundle must
// not be modified.
func (b *Bundles) At(i int) (key string, bundle []byte) {
	var start uint32
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.keys[i], b.data[start:b.ends[i]:b.ends[i]]
}

// payload is the set's key plus bundle bytes, what the cache bounds.
func (b *Bundles) payload() int64 {
	n := int64(len(b.data))
	for _, k := range b.keys {
		n += int64(len(k))
	}
	return n
}

// cacheEntry holds one segment's bundles.
type cacheEntry struct {
	key     cacheKey
	bundles *Bundles
	bytes   int64
	elem    *list.Element
}

// Cache is the segment-summary cache: a byte-bounded LRU from
// (segment digest, schema key) to a segment's encoded summary bundles.
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int64
	size    int64
	entries map[cacheKey]*cacheEntry
	lru     *list.List // front = most recently used
	reg     *obs.Registry
	// Local counter mirrors, so Stats works with a nil registry.
	hits, misses, evictions int64
}

// CacheStats is a point-in-time cache counter snapshot.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// NewCache returns a cache bounded to capBytes of bundle payload
// (minimum one entry is always kept). reg may be nil.
func NewCache(capBytes int64, reg *obs.Registry) *Cache {
	return &Cache{cap: capBytes, entries: map[cacheKey]*cacheEntry{}, lru: list.New(), reg: reg}
}

// Get returns the cached bundles for key, or nil. They are shared and
// immutable.
func (c *Cache) Get(key cacheKey) (*Bundles, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		c.reg.Counter(MetricCacheMisses).Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e.elem)
	c.hits++
	c.reg.Counter(MetricCacheHits).Add(1)
	return e.bundles, true
}

// addHits counts n segments answered without a lookup: the segments a
// standing fold covers, which a job resuming from it does not ask the
// cache for. The counters keep meaning "segments answered from cache".
func (c *Cache) addHits(n int64) {
	c.mu.Lock()
	c.hits += n
	c.mu.Unlock()
	c.reg.Counter(MetricCacheHits).Add(n)
}

// Put inserts one segment's bundles, evicting least-recently-used
// entries past the byte capacity. Re-inserting an existing key
// refreshes its recency.
func (c *Cache) Put(key cacheKey, bundles *Bundles) {
	bytes := bundles.payload()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &cacheEntry{key: key, bundles: bundles, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.size += bytes
	for c.size > c.cap && c.lru.Len() > 1 {
		c.evictOldest()
	}
	c.reg.Gauge(MetricCacheBytes).Max(c.size)
}

// evictOldest drops the LRU tail. Caller holds c.mu.
func (c *Cache) evictOldest() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	e := back.Value.(*cacheEntry)
	c.lru.Remove(back)
	delete(c.entries, e.key)
	c.size -= e.bytes
	c.evictions++
	c.reg.Counter(MetricCacheEvictions).Add(1)
}

// Flush evicts everything — the chaos eviction-mid-fold fault. Folds
// already holding an entry's bundles are unaffected (they are
// immutable); the only consequence is future misses.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.lru.Len() > 0 {
		c.evictOldest()
	}
}

// Stats snapshots the cache counters plus the live entry/byte totals.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.size,
	}
}
