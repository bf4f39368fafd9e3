package bench

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/workload"
)

// GCOptions tunes RunGC.
type GCOptions struct {
	// Replicas is the replication degree R (>= 1).
	Replicas int
	// Rounds is how many overlapped write rounds each client performs
	// before retention runs (default 6): every round publishes one
	// version per client.
	Rounds int
	// KeepLast is the retention policy applied after the write phase
	// (default 2).
	KeepLast int
	// GCRate caps chunk deletions per reaper tick (default 4) — the
	// knob whose foreground-latency impact E11 measures.
	GCRate int
	// MaxTicks bounds the reclamation loop (default 5000).
	MaxTicks int
}

// GCResult is one measured space-reclamation cell.
type GCResult struct {
	Clients, Replicas int
	Versions          int   // versions published before retention
	Dropped           int   // versions dropped by the retention policy
	Reclaimed         int64 // versions marked reclaimed
	ExpectedBytes     int64 // exclusive bytes the drop schedule should free (R copies)
	DeletedBytes      int64 // bytes the reaper actually freed
	BytesBefore       int64 // pool bytes before retention
	BytesAfter        int64 // pool bytes after reclamation
	GCTicks           int64 // reaper ticks to drain the drop schedule
	GCElapsed         time.Duration
	ReclaimMBps       float64
	BaselineLatency   time.Duration // foreground write latency, quiet system
	StormLatency      time.Duration // foreground write latency under the GC storm
	Impact            float64       // StormLatency / BaselineLatency
	Stats             core.ReaperStats
}

// RunGC measures experiment E11: N clients publish an overlapped
// version history at replication degree R, the retention policy drops
// everything but the newest KeepLast versions, and the rate-limited
// reaper reclaims the dropped versions' exclusive chunks from every
// replica. Reported: how many bytes come back (against the
// independently computed exclusive set of the drop schedule), how fast
// reclamation proceeds at the configured delete rate, and what the GC
// storm costs concurrent foreground writes (the analogous guard to
// E10's repair-storm bound).
func RunGC(env cluster.Env, spec workload.OverlapSpec, opts GCOptions) (GCResult, error) {
	if err := spec.Validate(); err != nil {
		return GCResult{}, err
	}
	if opts.Replicas < 1 {
		opts.Replicas = 1
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 6
	}
	if opts.KeepLast <= 0 {
		opts.KeepLast = 2
	}
	if opts.GCRate <= 0 {
		opts.GCRate = 4
	}
	if opts.MaxTicks <= 0 {
		opts.MaxTicks = 5000
	}
	env.Replicas = opts.Replicas
	env.GC = true
	env.Reaper.DeletesPerTick = opts.GCRate
	// The bench drains the whole drop schedule; size the queue to it
	// so progress is delete-rate-limited, not queue-retry-limited.
	env.Reaper.QueueDepth = 4096
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return GCResult{}, err
	}
	be, err := svc.Backend(1, spec.FileSpan())
	if err != nil {
		return GCResult{}, err
	}
	res := GCResult{Clients: spec.Clients, Replicas: opts.Replicas}

	// writeRound publishes one version per client and returns the mean
	// per-call latency.
	writeRound := func() (time.Duration, error) {
		start := time.Now()
		err := writePhase(spec.Clients, 1, spec.ExtentsFor, func(_, _ int, vec extent.Vec) error {
			_, err := be.WriteList(vec)
			return err
		})
		return time.Since(start) / time.Duration(spec.Clients), err
	}

	// Write phase: build the version history, measuring quiet-system
	// latency over the later rounds.
	var quiet time.Duration
	measured := 0
	for r := 0; r < opts.Rounds; r++ {
		lat, err := writeRound()
		if err != nil {
			return res, err
		}
		if r >= opts.Rounds/2 {
			quiet += lat
			measured++
		}
	}
	res.BaselineLatency = quiet / time.Duration(measured)
	latest, err := be.Latest()
	if err != nil {
		return res, err
	}
	res.Versions = int(latest)
	res.BytesBefore = poolBytes(svc)

	// Retention: drop everything but the newest KeepLast versions, and
	// compute the expected reclaim independently of the reaper — the
	// union of the dropped versions' exclusive chunks, at R copies.
	b := be.Blob()
	dropped, err := b.Retain(opts.KeepLast)
	if err != nil {
		return res, err
	}
	res.Dropped = len(dropped)
	expect := make(map[chunk.Key]bool)
	for _, v := range dropped {
		keys, err := b.ExclusiveChunks(v)
		if err != nil {
			return res, err
		}
		for _, k := range keys {
			expect[k] = true
		}
	}
	for key := range expect {
		if ids, ok := svc.Router.Locate(key); ok && len(ids) > 0 {
			if size, err := chunkLen(svc, key); err == nil {
				res.ExpectedBytes += size * int64(len(ids))
			}
		}
	}

	// GC storm: the reaper drains the drop schedule at GCRate deletes
	// per tick while foreground writes continue; the latency ratio is
	// the starvation guard.
	stopReaper := TickEvery(2*time.Millisecond, svc.Reaper.Tick)
	var storm time.Duration
	stormRounds := 4
	start := time.Now()
	for r := 0; r < stormRounds; r++ {
		lat, err := writeRound()
		if err != nil {
			stopReaper()
			return res, err
		}
		storm += lat
	}
	res.StormLatency = storm / time.Duration(stormRounds)
	res.Impact = Ratio(float64(res.StormLatency), float64(res.BaselineLatency))
	stopReaper()

	// Drive the reaper synchronously until the drop schedule drains —
	// on the metered model each tick pays real (virtual) metadata and
	// store time, so the reclamation rate reflects the configured
	// delete budget, not wall-clock ticker cadence.
	TickUntil(opts.MaxTicks, svc.Reaper.Tick, Drained(be, &err))
	if err != nil {
		return res, err
	}
	res.GCElapsed = time.Since(start)
	res.Stats = svc.Reaper.Stats()
	res.GCTicks = res.Stats.Ticks
	res.Reclaimed = res.Stats.Reclaimed
	res.DeletedBytes = res.Stats.DeletedBytes
	res.BytesAfter = poolBytes(svc)
	res.ReclaimMBps = mbps(res.DeletedBytes, res.GCElapsed)
	if res.DeletedBytes < res.ExpectedBytes {
		return res, fmt.Errorf("bench: reclaimed %d bytes < expected %d for the drop schedule (stats %+v)",
			res.DeletedBytes, res.ExpectedBytes, res.Stats)
	}
	// Durability: every retained version still scrubs clean.
	if _, err := be.Scrub(); err != nil {
		return res, fmt.Errorf("bench: scrub after GC: %w", err)
	}
	return res, nil
}

// poolBytes sums stored bytes across the provider pool.
func poolBytes(svc *cluster.Versioning) int64 {
	var total int64
	for _, u := range svc.Router.Usage() {
		total += u.Bytes
	}
	return total
}

// chunkLen probes the pool for any replica of the chunk and returns
// its size.
func chunkLen(svc *cluster.Versioning, key chunk.Key) (int64, error) {
	for _, p := range svc.Providers.Providers() {
		if size, err := p.Store().Len(key); err == nil {
			return size, nil
		}
	}
	return 0, fmt.Errorf("bench: no replica of %s", key)
}
