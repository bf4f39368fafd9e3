// Version-lifecycle garbage collection: the background control loop
// that turns dropped versions into reclaimed space.
//
// The Reaper is the Healer's sibling and shares its machinery — the
// same bounded dedup key queue (queue.go), the same per-tick rate
// limits, the same tick/pass/Run drive modes — because it faces the
// same constraint: background traffic must never starve foreground
// writes or repair.
//
// One pass is discover, then diff, then delete:
//
//  1. Discovery and retention: the pass opens a handle for every blob
//     the catalog names that it has not seen, and with RetainLast set
//     each blob drops every version older than the newest RetainLast
//     (pinned versions are skipped by the version manager).
//  2. Exclusive-ref diff: for each version pending reclamation (one
//     version per tick; the walk is metadata I/O), the segment-tree
//     diff walk (blob.ExclusiveChunks) computes the chunks no retained
//     version can reach — the refcount-by-metadata-diff step. Those
//     keys enter the bounded delete queue.
//  3. Deletion: every tick drains at most DeletesPerTick keys through
//     Router.DeleteReplicas, which removes the chunk from every
//     reachable replica and retires placement. A chunk with an
//     in-flight repair returns ErrChunkBusy and is retried next pass —
//     GC never deletes under a running repair.
//  4. Reclamation: when the pass's queue has drained, every pending
//     version whose deletes all succeeded is marked reclaimed at the
//     version manager; versions with failed or deferred deletes stay
//     pending and are re-diffed next pass (deletion is idempotent:
//     already-deleted replicas answer ErrNotFound, which is success).
//
// Safety against concurrent writers: a new write's borrow answers only
// ever reference metadata whose chunks are reachable from the latest
// published version, which is always retained, so a chunk the diff
// walk proves exclusive to dropped versions can never be referenced by
// any in-flight or future write.
package core

import (
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/provider"
)

// ReapRouter is the slice of the provider router the reaper drives.
// Implemented by *provider.Router.
type ReapRouter interface {
	DeleteReplicas(key chunk.Key) (removed int, bytes int64, err error)
}

var _ ReapRouter = (*provider.Router)(nil)

// BlobLister enumerates the registered blob IDs; implemented by
// *vmanager.Manager and *vmanager.Sharded. It is the reaper's only way
// to find blobs (see SetCatalog), in process as in the daemon, where
// clients create blobs over RPC.
type BlobLister interface {
	Blobs() []uint64
}

// ReaperConfig tunes the collector. Zero fields select defaults.
type ReaperConfig struct {
	// RetainLast, when positive, applies the retention policy at every
	// pass start: keep the newest RetainLast versions of each blob,
	// drop the rest (pins excepted). 0 means drops are manual
	// (DropVersion / Retain calls only).
	RetainLast int
	// Deprecated: nothing reads it; a pass walks no retained refs.
	WalkChunksPerTick int
	// DeletesPerTick caps chunk deletions per tick (default 4) — the
	// gc-rate knob bounding reclamation bandwidth so a GC storm cannot
	// starve foreground I/O.
	DeletesPerTick int
	// QueueDepth bounds the delete queue (default 256 distinct chunks).
	QueueDepth int
	// Interval is the background loop period for Run (default 200ms).
	Interval time.Duration
}

func (c ReaperConfig) withDefaults() ReaperConfig {
	if c.DeletesPerTick <= 0 {
		c.DeletesPerTick = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	return c
}

// ReaperStats are cumulative collector counters.
type ReaperStats struct {
	Ticks           int64 // control-loop iterations
	Passes          int64 // completed discover+diff+delete passes
	AutoDropped     int64 // versions dropped by the RetainLast policy
	PendingSeen     int64 // pending version diffs started
	Enqueued        int64 // keys accepted into the delete queue
	Duplicates      int64 // enqueues dropped as already queued
	Dropped         int64 // enqueues dropped on a full queue
	Deleted         int64 // chunks fully deleted
	DeletedBytes    int64 // payload bytes reclaimed
	ReplicasRemoved int64 // individual replica copies removed
	DeleteFailed    int64 // chunks with at least one replica still to delete
	DeferredBusy    int64 // deletions deferred to a repair in flight
	Reclaimed       int64 // versions marked reclaimed
	QueueLen        int   // current delete-queue depth
}

// reapOwner identifies one pending version within a pass.
type reapOwner struct {
	blob    *blob.Blob
	version uint64
}

// reapPass is the in-flight state of one collection pass.
type reapPass struct {
	pendings   []reapOwner         // pending versions still to diff
	owners     map[chunk.Key][]int // queued key -> owner indexes awaiting its delete
	ownerList  []reapOwner         // pending versions seen this pass
	failed     []bool              // per owner: a delete failed or deferred
	remaining  []int               // per owner: keys still in the queue
	enqueued   map[chunk.Key]bool  // keys this pass put in the queue
	failedKeys map[chunk.Key]bool  // keys whose delete failed or was deferred
}

// Reaper is the background garbage collector: retention trigger,
// exclusive-chunk differ and rate-limited delete worker in one tickable
// object, driven exactly like the Healer (Tick from virtual-time loops,
// or Run for wall-clock operation).
type Reaper struct {
	router ReapRouter
	cfg    ReaperConfig
	queue  *keyQueue // bounded dedup delete queue (shared machinery)

	mu        sync.Mutex
	targets   []*blob.Blob
	known     map[uint64]bool
	catalog   func() []*blob.Blob
	pass      *reapPass
	passStart time.Time // wall-clock start of the current pass (metrics only)
	stats     ReaperStats

	// met holds nil-tolerant metric handles, nil until SetMetrics.
	met struct {
		queueDepth   *metrics.Gauge
		passSec      *metrics.Histogram
		deleted      *metrics.Counter
		deletedBytes *metrics.Counter
	}

	loop tickLoop
}

// SetMetrics wires the reaper's delete-queue depth gauge (sampled per
// tick), pass duration histogram and reclamation counters into reg.
// Call before the loop runs; a nil registry leaves metrics disabled.
func (r *Reaper) SetMetrics(reg *metrics.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.met.queueDepth = reg.Gauge("bs_reap_queue_depth")
	r.met.passSec = reg.Histogram("bs_reap_pass_seconds", nil)
	r.met.deleted = reg.Counter("bs_reap_deleted_total")
	r.met.deletedBytes = reg.Counter("bs_reap_deleted_bytes_total")
}

// NewReaper builds a reaper over the given router.
func NewReaper(router ReapRouter, cfg ReaperConfig) *Reaper {
	cfg = cfg.withDefaults()
	return &Reaper{
		router: router,
		cfg:    cfg,
		queue:  newKeyQueue(cfg.QueueDepth),
		known:  make(map[uint64]bool),
	}
}

// Config returns the effective (defaulted) configuration.
func (r *Reaper) Config() ReaperConfig { return r.cfg }

// SetCatalog wires blob discovery: at each pass start the reaper opens
// a handle for every blob the version manager knows that it has not
// seen yet, in blob ID order. Without a catalog the reaper collects
// nothing.
func (r *Reaper) SetCatalog(svc blob.Services, vm BlobLister) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.catalog = func() []*blob.Blob {
		var fresh []*blob.Blob
		ids := vm.Blobs()
		slices.Sort(ids)
		for _, id := range ids {
			if r.known[id] {
				continue
			}
			b, err := blob.Open(svc, id)
			if err != nil {
				continue // not readable yet; retried next pass
			}
			fresh = append(fresh, b)
		}
		return fresh
	}
}

// Tick runs one bounded collector iteration: drain up to
// DeletesPerTick queued deletions, then diff at most one pending
// version, finalizing the pass when all work has drained.
func (r *Reaper) Tick() {
	r.mu.Lock()
	r.stats.Ticks++
	if r.pass == nil {
		r.startPassLocked()
	}
	r.mu.Unlock()
	r.drainDeletes()
	r.diffOnePending()
	r.maybeFinishPass()
	r.met.queueDepth.Set(int64(r.queue.len()))
}

// startPassLocked applies retention and snapshots the pass work list.
func (r *Reaper) startPassLocked() {
	if r.met.passSec != nil {
		r.passStart = time.Now()
	}
	if r.catalog != nil {
		for _, b := range r.catalog() {
			if !r.known[b.ID()] {
				r.known[b.ID()] = true
				r.targets = append(r.targets, b)
			}
		}
	}
	p := &reapPass{
		owners:     make(map[chunk.Key][]int),
		enqueued:   make(map[chunk.Key]bool),
		failedKeys: make(map[chunk.Key]bool),
	}
	for _, b := range r.targets {
		if r.cfg.RetainLast > 0 {
			if dropped, err := b.Retain(r.cfg.RetainLast); err == nil {
				r.stats.AutoDropped += int64(len(dropped))
			}
		}
		info, err := b.GCInfo()
		if err != nil {
			continue // retried next pass
		}
		for _, pd := range info.Pending {
			p.pendings = append(p.pendings, reapOwner{blob: b, version: pd.Version})
		}
	}
	r.pass = p
}

// diffOnePending runs the exclusive-chunk diff for one pending version
// and enqueues its reclaimable keys.
func (r *Reaper) diffOnePending() {
	r.mu.Lock()
	p := r.pass
	if p == nil || len(p.pendings) == 0 {
		r.mu.Unlock()
		return
	}
	owner := p.pendings[0]
	p.pendings = p.pendings[1:]
	idx := len(p.ownerList)
	p.ownerList = append(p.ownerList, owner)
	p.failed = append(p.failed, false)
	p.remaining = append(p.remaining, 0)
	r.stats.PendingSeen++
	r.mu.Unlock()

	keys, err := owner.blob.ExclusiveChunks(owner.version)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pass != p {
		return // pass reset while unlocked
	}
	if err != nil {
		p.failed[idx] = true // re-diffed next pass
		return
	}
	for _, key := range keys {
		if p.enqueued[key] {
			// Shared with an earlier pending version this pass. If the
			// deletion is still queued, co-own it; if it already ran,
			// inherit its outcome (success needs nothing further, a
			// failure means this version must retry next pass too).
			if _, queued := p.owners[key]; queued {
				p.owners[key] = append(p.owners[key], idx)
				p.remaining[idx]++
			} else if p.failedKeys[key] {
				p.failed[idx] = true
			}
			continue
		}
		if !r.queue.push(key) {
			// Queue full: this version cannot complete this pass; the
			// next pass re-diffs it (deletes already done by then will
			// shrink the set).
			p.failed[idx] = true
			continue
		}
		p.enqueued[key] = true
		p.owners[key] = append(p.owners[key], idx)
		p.remaining[idx]++
	}
}

// drainDeletes executes up to DeletesPerTick queued deletions.
func (r *Reaper) drainDeletes() {
	for i := 0; i < r.cfg.DeletesPerTick; i++ {
		key, ok := r.queue.pop()
		if !ok {
			return
		}
		removed, bytes, err := r.router.DeleteReplicas(key)

		r.mu.Lock()
		r.stats.ReplicasRemoved += int64(removed)
		switch {
		case err == nil:
			r.stats.Deleted++
			r.stats.DeletedBytes += bytes
			r.met.deleted.Inc()
			r.met.deletedBytes.Add(bytes)
		case errors.Is(err, provider.ErrChunkBusy):
			r.stats.DeferredBusy++
		default:
			r.stats.DeletedBytes += bytes
			r.stats.DeleteFailed++
		}
		if p := r.pass; p != nil {
			for _, idx := range p.owners[key] {
				p.remaining[idx]--
				if err != nil {
					p.failed[idx] = true
				}
			}
			delete(p.owners, key)
			if err != nil {
				p.failedKeys[key] = true
			}
		}
		r.mu.Unlock()
	}
}

// maybeFinishPass finalizes the pass once the diffs and the delete
// queue have all drained: versions whose deletes all succeeded
// are marked reclaimed, the rest stay pending for the next pass.
func (r *Reaper) maybeFinishPass() {
	r.mu.Lock()
	p := r.pass
	if p == nil || len(p.pendings) > 0 {
		r.mu.Unlock()
		return
	}
	if r.queue.len() > 0 {
		r.mu.Unlock()
		return
	}
	type claim struct {
		blob    *blob.Blob
		version uint64
	}
	var claims []claim
	for idx, owner := range p.ownerList {
		if !p.failed[idx] && p.remaining[idx] == 0 {
			claims = append(claims, claim{blob: owner.blob, version: owner.version})
		}
	}
	r.pass = nil
	r.stats.Passes++
	if r.met.passSec != nil && !r.passStart.IsZero() {
		r.met.passSec.ObserveSince(r.passStart)
		r.passStart = time.Time{}
	}
	r.mu.Unlock()

	for _, c := range claims {
		if err := c.blob.MarkReclaimed(c.version); err == nil {
			r.mu.Lock()
			r.stats.Reclaimed++
			r.mu.Unlock()
		}
	}
}

// Pass runs ticks until one full collection pass completes and its
// deletions drain; the synchronous "collect now" entry point
// (bsctl gc -sync). Returns the stats snapshot afterward.
func (r *Reaper) Pass() ReaperStats {
	r.mu.Lock()
	start := r.stats.Passes
	r.mu.Unlock()
	const maxIters = 100000
	for i := 0; i < maxIters; i++ {
		r.Tick()
		r.mu.Lock()
		done := r.stats.Passes > start
		r.mu.Unlock()
		if done {
			break
		}
	}
	return r.Stats()
}

// Stats returns a snapshot of the collector counters.
func (r *Reaper) Stats() ReaperStats {
	r.mu.Lock()
	st := r.stats
	r.mu.Unlock()
	st.Enqueued, st.Duplicates, st.Dropped = r.queue.counters()
	st.QueueLen = r.queue.len()
	return st
}

// Run starts the background wall-clock loop, ticking every
// cfg.Interval until Stop. Starting an already running reaper is a
// no-op.
func (r *Reaper) Run() { r.loop.start(r.cfg.Interval, r.Tick) }

// Stop halts the background loop and waits for it to exit.
func (r *Reaper) Stop() { r.loop.halt() }
