// Version-lifecycle garbage collection: the background control loop
// that turns dropped versions into reclaimed space.
//
// The Reaper is the Healer's sibling and shares its machinery — the
// same bounded dedup key queue (queue.go), the same per-tick rate
// limits, the same tick/pass/Run drive modes — because it faces the
// same constraint: background traffic must never starve foreground
// writes or repair.
//
// One pass:
//
//  1. Retention: with RetainLast set, each blob drops every
//     version older than the newest RetainLast (pinned versions are
//     skipped by the version manager).
//  2. Hint walk: the pass walks every retained version's chunk refs at
//     WalkChunksPerTick refs per tick, comparing each metadata replica
//     hint against authoritative placement and counting stale ones
//     (ReaperStats.StaleHints) — the operator's measure of hint rot
//     left behind by repairs (a full metadata rewrite is future work).
//  3. Exclusive-ref diff: for each version pending reclamation (one
//     version per tick; the walk is metadata I/O), the segment-tree
//     diff walk (blob.ExclusiveChunks) computes the chunks no retained
//     version can reach — the refcount-by-metadata-diff step. Those
//     keys enter the bounded delete queue.
//  4. Deletion: every tick drains at most DeletesPerTick keys through
//     Router.DeleteReplicas, which removes the chunk from every
//     reachable replica and retires placement. A chunk with an
//     in-flight repair returns ErrChunkBusy and is retried next pass —
//     GC never deletes under a running repair.
//  5. Reclamation: when the pass's queue has drained, every pending
//     version whose deletes all succeeded is marked reclaimed at the
//     version manager; versions with failed or deferred deletes stay
//     pending and are re-walked next pass (deletion is idempotent:
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
	"repro/internal/vmanager"
)

// ReapRouter is the slice of the provider router the reaper drives.
// Implemented by *provider.Router.
type ReapRouter interface {
	DeleteReplicas(key chunk.Key) (removed int, bytes int64, err error)
	Locate(key chunk.Key) ([]provider.ID, bool)
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
	// WalkChunksPerTick caps retained-ref walk steps per tick
	// (default 64).
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
	if c.WalkChunksPerTick <= 0 {
		c.WalkChunksPerTick = 64
	}
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
	Passes          int64 // completed retention+walk+delete passes
	AutoDropped     int64 // versions dropped by the RetainLast policy
	WalkedRefs      int64 // retained chunk refs walked (hint verification)
	StaleHints      int64 // refs whose replica hint disagreed with placement
	HintsRewritten  int64 // stale hints rewritten into the shared read cache
	WalkErrors      int64 // versions whose metadata could not be resolved
	PendingSeen     int64 // pending version walks started
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

// reapOwner identifies one version within a pass: a retained one to
// hint-walk, or a pending one to diff.
type reapOwner struct {
	blob    *blob.Blob
	version uint64
}

// reapPass is the in-flight state of one collection pass.
type reapPass struct {
	walkUnits  []reapOwner         // retained versions still to hint-walk
	walkRefs   []chunk.Ref         // refs of the version being walked
	pendings   []reapOwner         // pending versions still to diff
	owners     map[chunk.Key][]int // queued key -> owner indexes awaiting its delete
	ownerList  []reapOwner         // pending versions seen this pass
	failed     []bool              // per owner: a delete failed or deferred
	remaining  []int               // per owner: keys still in the queue
	enqueued   map[chunk.Key]bool  // keys this pass put in the queue
	failedKeys map[chunk.Key]bool  // keys whose delete failed or was deferred
	walkDone   bool
}

// Reaper is the background garbage collector: retention trigger,
// stale-hint auditor, exclusive-chunk differ and rate-limited delete
// worker in one tickable object, driven exactly like the Healer (Tick
// from virtual-time loops, or Run for wall-clock operation).
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
	cache     *provider.ReadCache // stale-hint rewrite target (optional)

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

// SetReadCache wires the shared read cache into the hint walk:
// metadata refs are immutable, so a stale hint can never be fixed in
// place — but rewriting the CURRENT placement into the cache gives
// every reader the corrected set without waiting for a read to stumble
// over the stale hint and fail over first. The walk becomes the
// repair path for hint rot, not just its auditor.
func (r *Reaper) SetReadCache(c *provider.ReadCache) {
	r.mu.Lock()
	r.cache = c
	r.mu.Unlock()
}

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
// DeletesPerTick queued deletions, then advance the walk within its
// per-tick budgets, finalizing the pass when all work has drained.
func (r *Reaper) Tick() {
	r.mu.Lock()
	r.stats.Ticks++
	if r.pass == nil {
		r.startPassLocked()
	}
	r.mu.Unlock()
	r.drainDeletes()
	r.walkStep()
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
			r.stats.WalkErrors++
			continue
		}
		for _, v := range info.Retained {
			if v == 0 {
				continue
			}
			p.walkUnits = append(p.walkUnits, reapOwner{blob: b, version: v})
		}
		for _, pd := range info.Pending {
			p.pendings = append(p.pendings, reapOwner{blob: b, version: pd.Version})
		}
	}
	r.pass = p
}

// walkStep advances the hint walk by its ref budget, then diffs at
// most one pending version into the delete queue.
func (r *Reaper) walkStep() {
	budget := r.cfg.WalkChunksPerTick
	for budget > 0 {
		ref, ok := r.nextWalkRef()
		if !ok {
			break
		}
		budget--
		r.auditHint(ref)
	}
	r.diffOnePending()
}

// nextWalkRef pops the next retained ref of the hint walk, resolving
// one version's metadata at a time.
func (r *Reaper) nextWalkRef() (chunk.Ref, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.pass
	if p == nil {
		return chunk.Ref{}, false
	}
	for {
		if len(p.walkRefs) > 0 {
			ref := p.walkRefs[0]
			p.walkRefs = p.walkRefs[1:]
			return ref, true
		}
		if len(p.walkUnits) == 0 {
			p.walkDone = true
			return chunk.Ref{}, false
		}
		unit := p.walkUnits[0]
		p.walkUnits = p.walkUnits[1:]
		r.mu.Unlock()
		refs, err := unit.blob.ChunkRefs(unit.version)
		r.mu.Lock()
		if r.pass != p {
			return chunk.Ref{}, false // pass reset while unlocked
		}
		if err != nil {
			// Dropped mid-pass (retention raced us) is benign; anything
			// else is a real resolution failure.
			if !errors.Is(err, vmanager.ErrVersionDropped) {
				r.stats.WalkErrors++
			}
			continue
		}
		p.walkRefs = append(p.walkRefs, refs...)
	}
}

// auditHint compares one retained ref's replica hint against
// authoritative placement, counting rot — and, with a read cache
// wired, rewriting the current set into the cache so readers stop
// paying the stale hint's failover.
func (r *Reaper) auditHint(ref chunk.Ref) {
	r.mu.Lock()
	r.stats.WalkedRefs++
	cache := r.cache
	r.mu.Unlock()
	if len(ref.Replicas) == 0 {
		return
	}
	ids, ok := r.router.Locate(ref.Key)
	if !ok {
		return
	}
	if !hintMatches(ref.Replicas, ids) {
		r.mu.Lock()
		r.stats.StaleHints++
		if cache != nil {
			r.stats.HintsRewritten++
		}
		r.mu.Unlock()
		if cache != nil {
			cache.FillHint(ref.Key, ids)
		}
	}
}

// hintMatches reports whether a metadata replica hint names the same
// provider set as authoritative placement, ignoring order.
func hintMatches(hint []uint32, ids []provider.ID) bool {
	if len(hint) != len(ids) {
		return false
	}
	seen := make(map[provider.ID]int, len(ids))
	for _, id := range ids {
		seen[id]++
	}
	for _, h := range hint {
		id := provider.ID(h)
		if seen[id] == 0 {
			return false
		}
		seen[id]--
	}
	return true
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
		r.stats.WalkErrors++
		p.failed[idx] = true
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

// maybeFinishPass finalizes the pass once the walk, the diffs and the
// delete queue have all drained: versions whose deletes all succeeded
// are marked reclaimed, the rest stay pending for the next pass.
func (r *Reaper) maybeFinishPass() {
	r.mu.Lock()
	p := r.pass
	if p == nil || !p.walkDone || len(p.pendings) > 0 {
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

// QueueLen returns the current delete-queue depth.
func (r *Reaper) QueueLen() int { return r.queue.len() }

// Run starts the background wall-clock loop, ticking every
// cfg.Interval until Stop. Starting an already running reaper is a
// no-op.
func (r *Reaper) Run() { r.loop.start(r.cfg.Interval, r.Tick) }

// Stop halts the background loop and waits for it to exit.
func (r *Reaper) Stop() { r.loop.halt() }
