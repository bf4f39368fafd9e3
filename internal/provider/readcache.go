// The bounded sharded read-through cache of the hot-path read tier.
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
// Capacity is bounded in bytes, split evenly across a fixed power-of-two
// shard count (one lock per shard, so concurrent readers on different
// chunks never contend). Each shard trims under pressure: inserts that
// push the shard past its budget evict entries in insertion order until
// it fits. Invalidation is best-effort against in-flight fills — a read
// racing a repair may re-install an entry the repair just dropped — but
// that is safe for the same reason the cache exists at all: data is
// immutable.
package provider

import (
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/metrics"
)

// ReadCacheConfig sizes a ReadCache. Zero fields select defaults.
type ReadCacheConfig struct {
	// Shards is the fixed shard count, rounded up to a power of two
	// (default 16). More shards means less lock contention.
	Shards int
	// MaxBytes bounds the cache's total footprint across all shards —
	// cached chunk bytes plus a nominal cost per entry (default 64 MiB).
	MaxBytes int64
}

func (c ReadCacheConfig) withDefaults() ReadCacheConfig {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	n := 1
	for n < c.Shards {
		n <<= 1
	}
	c.Shards = n
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	return c
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

// cacheShard is one lock domain of the cache: per chunk key, the cached
// prefix [0, len) of its bytes.
type cacheShard struct {
	mu      sync.Mutex
	entries map[chunk.Key][]byte
	order   []chunk.Key // insertion order; the trim victim queue
	bytes   int64
}

// ReadCache is the shared bounded read-through cache. Safe for
// concurrent use. See the file comment for the contract.
type ReadCache struct {
	shards   []cacheShard
	mask     uint64
	perShard int64

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
	cfg = cfg.withDefaults()
	c := &ReadCache{
		shards:   make([]cacheShard, cfg.Shards),
		mask:     uint64(cfg.Shards - 1),
		perShard: cfg.MaxBytes / int64(cfg.Shards),
	}
	if c.perShard < 1 {
		c.perShard = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[chunk.Key][]byte)
	}
	return c
}

// shardFor hashes a chunk key onto its shard (FNV-1a over the key
// fields).
func (c *ReadCache) shardFor(key chunk.Key) *cacheShard {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(key.Blob)
	mix(key.Version)
	mix(uint64(key.Index))
	return &c.shards[h&c.mask]
}

// GetData serves a sub-range read from the cached prefix, if the whole
// requested range lies inside it. The returned slice is a copy.
func (c *ReadCache) GetData(key chunk.Key, off, length int64) ([]byte, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	data := s.entries[key]
	if data == nil || off < 0 || length < 0 || off+length > int64(len(data)) {
		s.mu.Unlock()
		c.misses.Add(1)
		c.met.misses.Inc()
		return nil, false
	}
	out := make([]byte, length)
	copy(out, data[off:off+length])
	s.mu.Unlock()
	c.hits.Add(1)
	c.met.hits.Inc()
	return out, true
}

// FillData installs (or grows) a chunk's cached prefix. data must be
// the chunk's bytes starting at offset 0; the cache takes ownership of
// the slice. Prefixes no longer than the cached one are ignored. One
// over the shard budget would evict everything else and still not fit:
// it is refused, and the shorter prefix it would have replaced dropped.
// Inserts that push the shard past its budget evict entries in
// insertion order until it fits.
func (c *ReadCache) FillData(key chunk.Key, data []byte) {
	if len(data) == 0 {
		return
	}
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.entries[key]
	if len(old) >= len(data) {
		return
	}
	if cost(data) > c.perShard {
		if ok {
			s.bytes -= cost(old)
			delete(s.entries, key)
			c.evictions.Add(1)
			c.met.evictions.Inc()
		}
		return
	}
	s.entries[key] = data
	if ok {
		s.bytes += cost(data) - cost(old)
	} else {
		s.order = append(s.order, key)
		s.bytes += cost(data)
	}
	c.fills.Add(1)
	c.met.fills.Inc()
	for s.bytes > c.perShard && len(s.order) > 0 {
		victim := s.order[0]
		s.order = s.order[1:]
		vd, ok := s.entries[victim]
		if !ok {
			continue // already invalidated
		}
		if victim == key {
			// Never evict the entry being filled this instant; requeue
			// it behind the others.
			s.order = append(s.order, victim)
			if len(s.order) == 1 {
				break
			}
			continue
		}
		s.bytes -= cost(vd)
		delete(s.entries, victim)
		c.evictions.Add(1)
		c.met.evictions.Inc()
	}
}

// Invalidate drops everything cached for a chunk — called by the
// router when the chunk's placement changes (repair moved the copies,
// or the collector deleted them).
func (c *ReadCache) Invalidate(key chunk.Key) {
	s := c.shardFor(key)
	s.mu.Lock()
	if data, ok := s.entries[key]; ok {
		s.bytes -= cost(data)
		delete(s.entries, key)
		c.invalidations.Add(1)
		c.met.invalidations.Inc()
	}
	s.mu.Unlock()
}

// Len returns the current entry count.
func (c *ReadCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the current footprint.
func (c *ReadCache) Bytes() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *ReadCache) Stats() ReadCacheStats {
	return ReadCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Fills:         c.fills.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.Len(),
		Bytes:         c.Bytes(),
	}
}
