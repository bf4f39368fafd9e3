// Self-healing replication: the background control loop that turns the
// failure signals the system already produces into automatic repair,
// with no operator in the loop.
//
// Three feeds converge on one bounded repair queue:
//
//   - The scrub walk: each pass is one snapshot of the router's
//     placement map (Router.Keys, sorted by blob, version and index),
//     every chunk it holds verified with store probes — both the
//     replica COUNT and the failure-domain SPREAD (copies co-located in
//     one domain while a spare live domain exists are repair work too).
//     The walk is the set Router.UnderReplicated counts: published
//     versions' chunks, and those of dropped-but-unreclaimed versions
//     and tombstoned writes alike. Probe errors feed the provider
//     HealthMonitor, so scrub traffic itself trips failure detection.
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
// found within one full scrub pass (pass length = placed chunks /
// ScrubChunksPerTick ticks) and repaired within queue-drain time
// (degraded chunks / RepairsPerTick ticks); read-repair short-circuits
// the wait for whatever the foreground workload actually touches.
package core

import (
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/metrics"
	"repro/internal/provider"
)

// HealRouter is the slice of the provider router the healer drives:
// the placement map's keys, one verification per scrubbed chunk and
// single-chunk repair.
// Implemented by *provider.Router, whose VerifyReplicas answers for the
// live count and the placement together: a chunk at full live degree is
// still misplaced when its copies co-locate in fewer failure domains
// than the pool could spread them over, or when its RECORDED set names
// a dead provider beside them (invisible to the probe-based count). An
// unknown chunk verifies 0 of 0.
type HealRouter interface {
	VerifyReplicas(key chunk.Key) (live, want int, misplaced bool)
	RepairChunk(key chunk.Key) (provider.RepairOutcome, int, error)
	Keys() []chunk.Key
}

var _ HealRouter = (*provider.Router)(nil)

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
	ScrubPasses    int64 // completed walks over the placement map
	ScrubbedChunks int64 // replica sets verified
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
	inPass    bool        // a pass has started and not yet completed
	pass      []chunk.Key // keys of the current pass still to verify
	passStart time.Time   // wall-clock start of the current pass (metrics only)
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

// EnqueueRepair adds one chunk to the bounded repair queue; it is the
// router's degraded handler (read-repair) and the scrubber's sink.
// Never blocks: duplicates and overflow are dropped (and counted) —
// see the backpressure model above.
func (h *Healer) EnqueueRepair(key chunk.Key) {
	h.queue.push(key)
}

// Tick runs one bounded control-loop iteration: advance health
// probation probes, drain up to RepairsPerTick queued repairs, then
// verify up to ScrubChunksPerTick chunks of the scrub walk.
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

// scrubStep verifies up to ScrubChunksPerTick chunks of the current
// pass. Beyond the replica count, a chunk whose copies co-locate in one
// failure domain while a spare domain exists is enqueued too — repair
// restores the spread invariant, not just the degree.
func (h *Healer) scrubStep() {
	budget := h.cfg.ScrubChunksPerTick
	for budget > 0 {
		key, ok := h.nextKey()
		if !ok {
			return // pass exhausted this tick; next tick starts a new one
		}
		budget--
		live, want, misplaced := h.router.VerifyReplicas(key)
		h.mu.Lock()
		h.stats.ScrubbedChunks++
		h.mu.Unlock()
		if live != want {
			// Below degree: lost copies to restore. Above degree: an
			// extra copy left by a spread move whose eviction failed,
			// for RepairChunk to trim.
			h.queue.push(key)
		} else if misplaced && h.queue.push(key) {
			h.mu.Lock()
			h.stats.SpreadFound++
			h.mu.Unlock()
		}
	}
}

// nextKey pops the next chunk key of the scrub walk. ok is false when
// the current pass just ended (the next call starts a new pass —
// callers stop for this tick so pass boundaries are visible in virtual
// time). An empty placement map still makes a completed pass, so
// Pass() terminates promptly on an empty deployment.
func (h *Healer) nextKey() (chunk.Key, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.inPass {
		h.inPass = true
		h.pass = h.router.Keys()
		if h.met.passSec != nil {
			h.passStart = time.Now()
		}
	}
	if len(h.pass) == 0 {
		h.inPass = false
		h.stats.ScrubPasses++
		if h.met.passSec != nil && !h.passStart.IsZero() {
			h.met.passSec.ObserveSince(h.passStart)
			h.passStart = time.Time{}
		}
		return chunk.Key{}, false
	}
	key := h.pass[0]
	h.pass = h.pass[1:]
	return key, true
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
	h.inPass = false
	h.pass = nil
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
