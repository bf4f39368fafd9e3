// Self-healing replication: the background control loop that turns the
// failure signals the system already produces into automatic repair,
// with no operator in the loop.
//
// Three feeds converge on one bounded repair queue:
//
//   - The Scrub walk: the healer iterates every published version of
//     every registered blob (falling back to the router's placement map
//     when it has no blob handles), verifying each referenced chunk's
//     replica set with store probes — both the replica COUNT and the
//     failure-domain SPREAD (copies co-located in one domain while a
//     spare live domain exists are repair work too). Probe errors feed
//     the provider HealthMonitor, so scrub traffic itself trips failure
//     detection.
//   - Read-repair: a degraded read (failover was needed) or a write
//     that quorum-committed short of R copies reports the exact chunk
//     through the router's degraded handler.
//   - Probation probes: each tick also advances the health monitor, so
//     revived machines return to service.
//
// # Backpressure model
//
// Repair traffic must never starve foreground I/O, so every stage is
// bounded and lossy-but-convergent:
//
//   - The queue holds at most QueueDepth distinct chunks. Enqueues of
//     already-queued chunks are dropped as duplicates; enqueues into a
//     full queue are dropped and counted (Dropped). Dropping is safe
//     because the queue is an accelerator, not the source of truth:
//     the scrub walk re-finds any still-degraded chunk on its next
//     pass, so a dropped key is delayed, never lost.
//   - Each tick verifies at most ScrubChunksPerTick chunk references
//     and executes at most RepairsPerTick re-replications. Repair
//     bandwidth (one full chunk read + missing copies written per
//     repair) is therefore capped per tick, and foreground writes
//     queued on the same provider meters see bounded added service
//     time instead of a repair storm.
//   - A failed repair is not retried in place: the chunk is dropped
//     and picked up again by a later scrub pass, so a provider pool
//     too small to restore R cannot spin the worker.
//
// Convergence: after a provider loss, every chunk that lost a copy is
// found within one full scrub pass (pass length = total refs /
// ScrubChunksPerTick ticks) and repaired within queue-drain time
// (degraded chunks / RepairsPerTick ticks); read-repair short-circuits
// the wait for whatever the foreground workload actually touches.
package core

import (
	"errors"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// HealRouter is the slice of the provider router the healer drives:
// replica verification and single-chunk re-replication. Implemented by
// *provider.Router.
type HealRouter interface {
	VerifyReplicas(key chunk.Key) (live, want int, known bool)
	RepairChunk(key chunk.Key) (provider.RepairOutcome, int, error)
	Keys() []chunk.Key
	UnderReplicated() int
}

var _ HealRouter = (*provider.Router)(nil)

// spreadChecker is the optional slice of the router the scrubber uses
// to police placement quality beyond the live count: a chunk at full
// live degree is still enqueued when its copies co-locate in fewer
// failure domains than the pool could spread them over, or when its
// RECORDED set diverges from the degree (stale dead entries,
// above-degree leftovers of a failed spread-move eviction — both
// invisible to the probe-based live count). *provider.Router
// implements it; the check is flag-based and cheap (no store probes),
// with the live-domain count computed once per scrub step rather than
// per chunk.
type spreadChecker interface {
	LiveDomains() int
	PlacementSuspect(key chunk.Key, liveDomains int) bool
}

var _ spreadChecker = (*provider.Router)(nil)

// ScrubOrder selects which end of the version history a scrub pass
// starts from.
type ScrubOrder int

// Scrub orders. OldestFirst is the historical default; NewestFirst
// prioritizes recently written versions, which are the most likely to
// be under-replicated right after a provider loss (their writes may
// have quorum-committed short of R against the dying machine), so the
// vulnerability window for fresh data shrinks.
const (
	OldestFirst ScrubOrder = iota
	NewestFirst
)

func (o ScrubOrder) String() string {
	if o == NewestFirst {
		return "newest"
	}
	return "oldest"
}

// HealerConfig tunes the control loop. Zero fields select defaults.
type HealerConfig struct {
	// ScrubChunksPerTick caps replica verifications per tick (default 64).
	ScrubChunksPerTick int
	// RepairsPerTick caps re-replications per tick (default 4).
	RepairsPerTick int
	// QueueDepth bounds the repair queue (default 256 distinct chunks).
	QueueDepth int
	// Interval is the background loop period for Run (default 100ms).
	Interval time.Duration
	// Order is the scrub walk direction over each blob's versions
	// (default OldestFirst).
	Order ScrubOrder
}

func (c HealerConfig) withDefaults() HealerConfig {
	if c.ScrubChunksPerTick <= 0 {
		c.ScrubChunksPerTick = 64
	}
	if c.RepairsPerTick <= 0 {
		c.RepairsPerTick = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	return c
}

// HealerStats are cumulative control-loop counters.
type HealerStats struct {
	Ticks          int64 // control-loop iterations
	ScrubPasses    int64 // completed walks over every published version
	ScrubbedChunks int64 // replica sets verified
	ScrubErrors    int64 // versions whose metadata could not be resolved
	Enqueued       int64 // chunks accepted into the repair queue
	Duplicates     int64 // enqueues dropped because already queued
	Dropped        int64 // enqueues dropped because the queue was full
	Repaired       int64 // chunks restored to full degree
	RepairFailed   int64 // repair attempts that failed or stayed partial
	RepairHealthy  int64 // queued chunks found already at full degree
	Lost           int64 // chunks with no surviving replica
	SpreadFound    int64 // full-live-count chunks accepted into the queue for a suspect placement (spread violation, stale entry, above-degree set)
	QueueLen       int   // current queue length
}

// scrubUnit is one pending unit of the current scrub pass: a published
// version of a registered blob, or (blob == nil) the raw placement walk.
type scrubUnit struct {
	blob    *blob.Blob
	version uint64
}

// Healer is the background self-healing loop: scrubber, repair queue
// and repair worker in one tickable object. Drive it either with Run
// (wall-clock background goroutine, blobseerd) or by calling Tick from
// a virtual-time loop (tests, benchmarks).
type Healer struct {
	router HealRouter
	health *provider.HealthMonitor // optional
	cfg    HealerConfig

	queue *keyQueue // bounded dedup repair queue (shared machinery, queue.go)

	mu        sync.Mutex
	targets   []*blob.Blob
	pass      []scrubUnit          // remaining units of the current pass
	refs      []chunk.Key          // refs of the unit being scrubbed
	passSeen  map[chunk.Key]string // dedup within one pass (key -> "")
	passStart time.Time            // wall-clock start of the current pass (metrics only)
	stats     HealerStats

	// met holds nil-tolerant metric handles, nil until SetMetrics.
	met struct {
		queueDepth *metrics.Gauge
		passSec    *metrics.Histogram
	}

	loop tickLoop
}

// SetMetrics wires the healer's repair-queue depth gauge (sampled per
// tick) and scrub-pass duration histogram into reg. Call before the
// loop runs; a nil registry leaves metrics disabled.
func (h *Healer) SetMetrics(reg *metrics.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.met.queueDepth = reg.Gauge("bs_heal_queue_depth")
	h.met.passSec = reg.Histogram("bs_heal_pass_seconds", nil)
}

// NewHealer builds a healer over the given router. health may be nil
// (no error-driven detection; scrubbing still works off down flags and
// probes).
func NewHealer(router HealRouter, health *provider.HealthMonitor, cfg HealerConfig) *Healer {
	cfg = cfg.withDefaults()
	return &Healer{
		router: router,
		health: health,
		cfg:    cfg,
		queue:  newKeyQueue(cfg.QueueDepth),
	}
}

// Config returns the effective (defaulted) configuration.
func (h *Healer) Config() HealerConfig { return h.cfg }

// RegisterBlob adds a blob whose published versions the scrub walk
// covers. With no registered blobs the walk falls back to the router's
// placement map (every chunk it knows), which is what a data-only
// daemon uses.
func (h *Healer) RegisterBlob(b *blob.Blob) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.targets = append(h.targets, b)
}

// EnqueueRepair adds one chunk to the bounded repair queue; it is the
// router's degraded handler (read-repair) and the scrubber's sink.
// Never blocks: duplicates and overflow are dropped (and counted) —
// see the backpressure model above.
func (h *Healer) EnqueueRepair(key chunk.Key) {
	h.queue.push(key)
}

// Tick runs one bounded control-loop iteration: advance health
// probation probes, drain up to RepairsPerTick queued repairs, then
// verify up to ScrubChunksPerTick chunk references of the scrub walk.
func (h *Healer) Tick() {
	h.mu.Lock()
	h.stats.Ticks++
	h.mu.Unlock()
	if h.health != nil {
		h.health.Tick()
	}
	h.drainRepairs()
	h.scrubStep()
	h.met.queueDepth.Set(int64(h.queue.len()))
}

// drainRepairs executes up to RepairsPerTick queued re-replications.
func (h *Healer) drainRepairs() {
	for i := 0; i < h.cfg.RepairsPerTick; i++ {
		key, ok := h.queue.pop()
		if !ok {
			return
		}

		outcome, _, _ := h.router.RepairChunk(key)

		h.mu.Lock()
		switch outcome {
		case provider.RepairRepaired:
			h.stats.Repaired++
		case provider.RepairHealthy:
			h.stats.RepairHealthy++
		case provider.RepairLost:
			h.stats.Lost++
		default:
			// Partial/failed: do not requeue — the next scrub pass
			// re-finds it, so a shrunken pool cannot spin the worker.
			h.stats.RepairFailed++
		}
		h.mu.Unlock()
	}
}

// scrubStep verifies up to ScrubChunksPerTick chunk refs, refilling the
// pass work list as needed. Beyond the replica count, a chunk whose
// copies co-locate in one failure domain while a spare domain exists
// is enqueued too — repair restores the spread invariant, not just the
// degree.
func (h *Healer) scrubStep() {
	liveDoms := 0
	spread, _ := h.router.(spreadChecker)
	if spread != nil {
		liveDoms = spread.LiveDomains()
	}
	budget := h.cfg.ScrubChunksPerTick
	for budget > 0 {
		key, ok := h.nextRef()
		if !ok {
			return // pass exhausted this tick; next tick starts a new one
		}
		budget--
		live, want, known := h.router.VerifyReplicas(key)
		h.mu.Lock()
		h.stats.ScrubbedChunks++
		h.mu.Unlock()
		if !known {
			continue
		}
		if live != want {
			// Below degree: lost copies to restore. Above degree: an
			// extra copy left by a spread move whose eviction failed,
			// for RepairChunk to trim.
			h.queue.push(key)
			continue
		}
		if liveDoms > 1 && spread.PlacementSuspect(key, liveDoms) && h.queue.push(key) {
			h.mu.Lock()
			h.stats.SpreadFound++
			h.mu.Unlock()
		}
	}
}

// nextRef pops the next chunk key of the scrub walk, resolving one
// version's metadata at a time and deduplicating within the pass. ok is
// false when the current pass just ended (the next call starts a new
// pass — callers stop for this tick so pass boundaries are visible in
// virtual time).
func (h *Healer) nextRef() (chunk.Key, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if len(h.refs) > 0 {
			key := h.refs[0]
			h.refs = h.refs[1:]
			return key, true
		}
		if len(h.pass) == 0 {
			if h.passSeen != nil {
				// A pass was in progress and is now complete.
				h.completePassLocked()
				return chunk.Key{}, false
			}
			h.startPassLocked()
			if len(h.pass) == 0 && len(h.refs) == 0 {
				// Nothing to scrub: an empty walk still counts as a
				// completed pass, so Pass() terminates promptly on an
				// empty deployment.
				h.completePassLocked()
				return chunk.Key{}, false
			}
			continue
		}
		unit := h.pass[0]
		h.pass = h.pass[1:]
		h.loadUnitLocked(unit)
	}
}

// completePassLocked counts one finished scrub pass and observes its
// wall-clock duration.
func (h *Healer) completePassLocked() {
	h.stats.ScrubPasses++
	h.passSeen = nil
	if h.met.passSec != nil && !h.passStart.IsZero() {
		h.met.passSec.ObserveSince(h.passStart)
		h.passStart = time.Time{}
	}
}

// startPassLocked snapshots the work list for a new scrub pass.
func (h *Healer) startPassLocked() {
	if h.met.passSec != nil {
		h.passStart = time.Now()
	}
	h.passSeen = make(map[chunk.Key]string)
	h.pass = h.pass[:0]
	if len(h.targets) == 0 {
		// Data-only deployment: walk the placement map directly.
		h.refs = append(h.refs[:0], h.router.Keys()...)
		return
	}
	for _, b := range h.targets {
		versions, err := b.Versions()
		if err != nil {
			h.stats.ScrubErrors++
			continue
		}
		if h.cfg.Order == NewestFirst {
			for i := len(versions) - 1; i >= 0; i-- {
				h.pass = append(h.pass, scrubUnit{blob: b, version: versions[i]})
			}
		} else {
			for _, v := range versions {
				h.pass = append(h.pass, scrubUnit{blob: b, version: v})
			}
		}
	}
}

// loadUnitLocked resolves one version's chunk refs into the ref buffer,
// skipping keys already verified this pass. Resolution drops the lock
// (metadata I/O can be metered and slow), so the pass may have been
// reset meanwhile (Pass() restarts the walk); the refs then belong to
// an abandoned pass and are discarded.
func (h *Healer) loadUnitLocked(unit scrubUnit) {
	h.mu.Unlock()
	refs, err := unit.blob.ChunkRefs(unit.version)
	h.mu.Lock()
	if err != nil {
		// A version dropped by the retention policy between pass
		// snapshot and resolution is not an error: the lifecycle
		// removed it from the scrub set on purpose.
		if !errors.Is(err, vmanager.ErrVersionDropped) {
			h.stats.ScrubErrors++
		}
		return
	}
	if h.passSeen == nil {
		return // pass was reset while unlocked
	}
	for _, ref := range refs {
		if _, seen := h.passSeen[ref.Key]; seen {
			continue
		}
		h.passSeen[ref.Key] = ""
		h.refs = append(h.refs, ref.Key)
	}
}

// Pass runs ticks until one full scrub pass completes AND the repair
// queue is drained; it is the synchronous "scrub now" entry point
// (bsctl scrub -sync). A chunk that cannot currently be repaired
// (lost, or no spare provider) is re-found and re-enqueued by every
// pass, so "queue drained" may be unreachable — after three full
// passes Pass stops anyway and returns what it saw, leaving the
// unrepairable remainder to the background loop. Returns the stats
// snapshot afterward.
func (h *Healer) Pass() HealerStats {
	h.mu.Lock()
	start := h.stats.ScrubPasses
	// Restart cleanly so the pass covers everything from now.
	h.pass = nil
	h.refs = nil
	h.passSeen = nil
	h.mu.Unlock()
	const maxIters = 100000
	for i := 0; i < maxIters; i++ {
		h.Tick()
		h.mu.Lock()
		passes := h.stats.ScrubPasses - start
		h.mu.Unlock()
		if (passes >= 1 && h.queue.len() == 0) || passes >= 3 {
			break
		}
	}
	return h.Stats()
}

// Stats returns a snapshot of the control-loop counters.
func (h *Healer) Stats() HealerStats {
	h.mu.Lock()
	st := h.stats
	h.mu.Unlock()
	st.Enqueued, st.Duplicates, st.Dropped = h.queue.counters()
	st.QueueLen = h.queue.len()
	return st
}

// QueueLen returns the current repair-queue depth.
func (h *Healer) QueueLen() int { return h.queue.len() }

// Run starts the background wall-clock loop, ticking every
// cfg.Interval until Stop. Starting an already running healer is a
// no-op.
func (h *Healer) Run() { h.loop.start(h.cfg.Interval, h.Tick) }

// Stop halts the background loop and waits for it to exit.
func (h *Healer) Stop() { h.loop.halt() }
