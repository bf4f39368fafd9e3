// The bounded read-through cache of the hot-path read tier.
//
// Chunks are immutable: once written, a chunk's BYTES can never change,
// only its PLACEMENT can rot (a repair moves the copies, the collector
// deletes them). That asymmetry makes a read cache almost free
// correctness-wise — cached data never goes stale, and the only
// invalidation signal needed is a placement change, which the router
// funnels through exactly two call sites (RepairChunk and
// DeleteReplicas, both under the per-chunk in-flight claim).
//
// The cache holds chunk data only: per chunk key, a prefix [0, len) of
// the chunk's bytes, filled by successful whole-prefix reads (off == 0).
// Sub-range reads inside the prefix are served without touching any
// provider. Where a chunk lives is the router's placement map's to say,
// never the cache's.
//
// Its only traffic is the router's in-process readers: the framed
// server streams every network get from the stores (Router.Open) and
// never consults it. So one lock guards one map and one insertion-order
// queue, and capacity is one budget in bytes: a fill that pushes the
// cache past it evicts the oldest entries until it fits. Lookups copy
// outside the lock, because an installed prefix is never written, only
// replaced. Invalidation is best-effort against in-flight fills — a
// read racing a repair may re-install an entry the repair just dropped
// — but that is safe for the same reason the cache exists at all: data
// is immutable.
package provider

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/metrics"
)

// ReadCacheConfig sizes a ReadCache. Zero fields select defaults.
type ReadCacheConfig struct {
	// MaxBytes bounds the cache's footprint — cached chunk bytes plus a
	// nominal cost per entry (default 64 MiB).
	MaxBytes int64
}

// ReadCacheStats are cumulative cache counters plus the current
// footprint.
type ReadCacheStats struct {
	Hits          int64 // data lookups served from the cache
	Misses        int64 // data lookups that went to a provider
	Fills         int64 // data entries installed or grown
	Evictions     int64 // entries trimmed under capacity pressure
	Invalidations int64 // entries dropped by placement changes
	Entries       int   // current entry count
	Bytes         int64 // current footprint
}

// HitRate returns Hits / (Hits + Misses), or 0 with no lookups.
func (s ReadCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// entryOverhead is the nominal bookkeeping cost charged per entry, so
// a flood of tiny entries is bounded by MaxBytes too, not just data.
const entryOverhead = 64

// cost is what an entry holding data counts against the budget.
func cost(data []byte) int64 { return int64(len(data)) + entryOverhead }

// cacheEntry is one chunk's cached prefix [0, len(data)) of its bytes.
type cacheEntry struct {
	key  chunk.Key
	data []byte
}

// ReadCache is the shared bounded read-through cache. Safe for
// concurrent use. See the file comment for the contract.
type ReadCache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[chunk.Key]*list.Element // each holding its *cacheEntry
	order   *list.List                  // insertion order; the trim victim queue
	bytes   int64

	hits, misses  atomic.Int64
	fills         atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	// met mirrors the counters above into a metrics registry; handles
	// are nil until SetMetrics, so every mirror call no-ops when the
	// cache is un-wired.
	met struct {
		hits          *metrics.Counter
		misses        *metrics.Counter
		fills         *metrics.Counter
		evictions     *metrics.Counter
		invalidations *metrics.Counter
	}
}

// SetMetrics mirrors the cache's counters (hits, misses, fills,
// evictions, invalidations) into reg. Call before serving traffic; a
// nil registry leaves metrics disabled.
func (c *ReadCache) SetMetrics(reg *metrics.Registry) {
	c.met.hits = reg.Counter("bs_cache_hits_total")
	c.met.misses = reg.Counter("bs_cache_misses_total")
	c.met.fills = reg.Counter("bs_cache_fills_total")
	c.met.evictions = reg.Counter("bs_cache_evictions_total")
	c.met.invalidations = reg.Counter("bs_cache_invalidations_total")
}

// NewReadCache builds a cache with the given (defaulted) configuration.
func NewReadCache(cfg ReadCacheConfig) *ReadCache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 64 << 20
	}
	return &ReadCache{
		maxBytes: cfg.MaxBytes,
		entries:  make(map[chunk.Key]*list.Element),
		order:    list.New(),
	}
}

// GetData serves a sub-range read from the cached prefix, if the whole
// requested range lies inside it. The returned slice is a copy.
func (c *ReadCache) GetData(key chunk.Key, off, length int64) ([]byte, bool) {
	var data []byte
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		data = e.Value.(*cacheEntry).data
	}
	c.mu.Unlock()
	if data == nil || off < 0 || length < 0 || off+length > int64(len(data)) {
		c.misses.Add(1)
		c.met.misses.Inc()
		return nil, false
	}
	out := make([]byte, length)
	copy(out, data[off:off+length])
	c.hits.Add(1)
	c.met.hits.Inc()
	return out, true
}

// FillData installs (or grows) a chunk's cached prefix. data must be
// the chunk's bytes starting at offset 0; the cache takes ownership of
// the slice. Prefixes no longer than the cached one are ignored. One
// over the whole budget would evict everything else and still not fit:
// it is refused, and the shorter prefix it would have replaced dropped.
// Otherwise the prefix joins the back of the insertion order (a grown
// one too), and the oldest entries are evicted until the cache fits.
func (c *ReadCache) FillData(key chunk.Key, data []byte) {
	if len(data) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil {
		if len(e.Value.(*cacheEntry).data) >= len(data) {
			return
		}
		c.drop(e)
	}
	if cost(data) > c.maxBytes {
		if e != nil {
			c.evictions.Add(1)
			c.met.evictions.Inc()
		}
		return
	}
	c.entries[key] = c.order.PushBack(&cacheEntry{key: key, data: data})
	c.bytes += cost(data)
	c.fills.Add(1)
	c.met.fills.Inc()
	for c.bytes > c.maxBytes {
		c.drop(c.order.Front())
		c.evictions.Add(1)
		c.met.evictions.Inc()
	}
}

// drop removes an entry; the caller holds mu.
func (c *ReadCache) drop(e *list.Element) {
	ce := c.order.Remove(e).(*cacheEntry)
	delete(c.entries, ce.key)
	c.bytes -= cost(ce.data)
}

// Invalidate drops everything cached for a chunk — called by the
// router when the chunk's placement changes (repair moved the copies,
// or the collector deleted them).
func (c *ReadCache) Invalidate(key chunk.Key) {
	c.mu.Lock()
	if e := c.entries[key]; e != nil {
		c.drop(e)
		c.invalidations.Add(1)
		c.met.invalidations.Inc()
	}
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *ReadCache) Stats() ReadCacheStats {
	c.mu.Lock()
	entries, bytes := len(c.entries), c.bytes
	c.mu.Unlock()
	return ReadCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Fills:         c.fills.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
		Bytes:         bytes,
	}
}
