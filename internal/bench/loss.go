package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/workload"
)

// LossOptions selects one cell of the loss scenario (RunLoss): how the
// data is placed, what is lost, whether anybody is told, and which
// read phases run around the loss.
type LossOptions struct {
	// Replicas is the replication degree R (default 1). R=1 on a flat
	// pool is the baseline whose loss is data loss; every other shape
	// needs R >= 2. Ignored when Coding is set.
	Replicas int
	// Coding selects erasure-coded placement ("rs-4+2") instead of
	// replication — same pool, same domains, same workload, only the
	// placement mode differs.
	Coding string
	// Domains racks the pool into this many failure domains and makes
	// the loss unit the whole first domain (every provider of zone0
	// dies at once). Zero keeps the flat pool, where the loss unit is
	// provider 0.
	Domains int
	// Spread places each chunk's copies or fragments in distinct
	// domains (cluster.Env.Domains). False with Domains set is the flat
	// control: same machines racked the same way, the same kill, but
	// placement blind to the domain boundaries.
	Spread bool
	// SelfHeal makes the loss one nobody is told about: the victims'
	// STORES die while their liveness flags stay up, so the system must
	// notice from errors, and recovery is the healer's — error-driven
	// detection, scrubber, rate-limited repair — counted in ticks.
	// Without it the victims are flagged down administratively (the
	// operator or a detector has noticed) and recovery is one
	// Router.Repair() pass.
	SelfHeal bool
	// Iterations is the number of write calls per client (default 1).
	Iterations int
	// HealthyReads and DegradedReads are the full-file reads each
	// client issues before and after the loss; zero skips the phase.
	// With SelfHeal the degraded phase is read-repair: failover reads
	// pre-feed the repair queue with the hot working set before the
	// scrubber discovers anything.
	HealthyReads, DegradedReads int
}

// lossMaxTicks bounds the healing loop.
const lossMaxTicks = 2000

// LossResult is one measured cell of the loss scenario. Experiments
// E9, E10, E12 and E18 are four projections of it onto table columns.
type LossResult struct {
	Mode    string // "R=3" or "rs-4+2"
	Clients int

	WrittenBytes int64
	StoredBytes  int64
	// StorageX is stored bytes over written bytes: (k+m)/k for coded
	// placement, R for replication — the storage price of durability.
	StorageX     float64
	WriteMBps    float64
	ReadMBps     float64 // healthy read phase
	DegradedMBps float64 // degraded read phase: failover / reconstruct
	// DegradedErr is the degraded phase's failure when data was lost
	// (Lost > 0): the exposure witnessed, not an error of the run.
	DegradedErr error

	// Loss accounting, from placement records alone.
	Chunks   int // chunks the placement map tracks
	Killed   int // providers lost
	Degraded int // chunks that lost at least one copy or fragment
	Lost     int // chunks left unreadable: no copy, or fewer than k fragments
	// SurvivedPct is the fraction of chunks still readable — the
	// durability headline.
	SurvivedPct float64

	// Recovery by repair pass (SelfHeal off).
	Repair        provider.RepairStats
	RepairElapsed time.Duration

	// Recovery by the healer (SelfHeal on), in ticks; NotConverged when
	// data was lost — no amount of healing brings it back.
	Prefed      int64 // chunks enqueued by read-repair before the first tick
	DetectTicks int   // ticks until every victim was marked down (0 = the reads beat tick 1 to it)
	HealTicks   int   // ticks until full degree AND full spread were restored
	HealElapsed time.Duration
	Healer      core.HealerStats
}

// RunLoss measures the loss scenario, the one question behind
// experiments E9, E10, E12 and E18: N clients write an overlapped
// workload under some placement (R copies or rs-k+m fragments, flat or
// spread across failure domains), optionally read it back at full
// health, then a provider or a whole failure domain is lost, the
// damage is accounted, the reads optionally repeat degraded, and the
// system recovers. What each experiment takes from it:
//
//   - E9, replication: the write cost of R copies, and what losing a
//     provider mid-run costs reads — with R >= 2 they fail over
//     (throughput dips, data survives, repair restores R); R=1
//     documents the baseline, whose degraded phase loses data instead
//     of throughput.
//   - E10, self-healing: the loss is a store death nobody is told
//     about, and the with/without-read-repair pair isolates what the
//     read path's degraded-chunk feed is worth: detection on the first
//     failed read instead of the first scrub probe, and the hot
//     working set in the repair queue at once instead of when the
//     scrub cursor reaches it.
//   - E12, correlated loss: with Spread, losing a whole domain costs
//     at most one copy per chunk — nothing is lost and the healer
//     re-replicates into the surviving domains; the flat control shows
//     the same loss destroying the chunks whose copies were racked
//     together. Durability bought by spread at zero extra storage.
//   - E18, erasure coding: rs-4+2 and R=3 both survive the domain loss;
//     the storage column is what that tolerance costs each (1.5x
//     against 3x).
//
// A cell that loses nothing must then read, recover and scrub clean,
// or the run fails. A cell that loses data reports the exposure — the
// failed degraded phase, the repair pass's lost count, no heal time —
// and is not an error: that contrast is what the experiments show.
func RunLoss(env cluster.Env, spec workload.OverlapSpec, opts LossOptions) (LossResult, error) {
	if err := spec.Validate(); err != nil {
		return LossResult{}, err
	}
	res := LossResult{Clients: spec.Clients, DetectTicks: NotConverged, HealTicks: NotConverged}
	if opts.Coding != "" {
		env.Coding, env.Replicas = opts.Coding, 0
		res.Mode = opts.Coding
	} else {
		env.Replicas = max(opts.Replicas, 1)
		res.Mode = fmt.Sprintf("R=%d", env.Replicas)
		if env.Replicas < 2 && (opts.SelfHeal || opts.Domains > 0) {
			return LossResult{}, fmt.Errorf("bench: self-healing and domain-loss cells need R >= 2, got %d: nothing survives to heal from", env.Replicas)
		}
	}
	if opts.Spread {
		if opts.Domains < 1 {
			return LossResult{}, fmt.Errorf("bench: Spread needs Domains")
		}
		env.Domains = opts.Domains
	}
	if opts.SelfHeal {
		// The healer's knobs are pinned: a detection threshold of 2
		// errors, and per-tick budgets deliberately modest (16 scrub
		// probes, 4 repairs) so discovery, not repair, is the visible
		// bottleneck read-repair removes — and so repair-time cells
		// are comparable across experiments.
		env.SelfHeal = true
		env.FaultInjection = true
		env.Health.Threshold = 2
		env.Healer.ScrubChunksPerTick = 16
		env.Healer.RepairsPerTick = 4
	}
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return LossResult{}, err
	}
	be, err := svc.Backend(1, spec.FileSpan())
	if err != nil {
		return LossResult{}, err
	}
	d := &mpiio.VersioningDriver{Backend: be}
	iters := max(opts.Iterations, 1)
	span := spec.FileSpan()
	var clock *Clock
	if opts.SelfHeal {
		clock = NewClock(svc)
	}

	start := time.Now()
	if err := writePhase(spec.Clients, iters, spec.ExtentsFor, func(_, _ int, vec extent.Vec) error {
		return d.WriteList(vec, true)
	}); err != nil {
		return res, err
	}
	res.WrittenBytes = int64(spec.Clients) * int64(iters) * spec.BytesPerClient()
	res.WriteMBps = mbps(res.WrittenBytes, time.Since(start))
	res.StoredBytes = poolBytes(svc)
	res.StorageX = Ratio(float64(res.StoredBytes), float64(res.WrittenBytes))

	// reads runs one whole-file read phase and reports its throughput.
	reads := func(perClient int) (float64, error) {
		start := time.Now()
		_, err := readPhase(d, spec.Clients, perClient, span)
		return mbps(int64(spec.Clients)*int64(perClient)*span, time.Since(start)), err
	}
	if opts.HealthyReads > 0 {
		if res.ReadMBps, err = reads(opts.HealthyReads); err != nil {
			return res, fmt.Errorf("bench: healthy read phase: %w", err)
		}
	}

	// The loss. The flat control kills the same machines as the spread
	// run: only placement differs between the modes.
	victims := []provider.ID{0}
	if opts.Domains > 0 {
		victims = DomainProviders(env.Providers, opts.Domains, 0)
	}
	dead := make(map[provider.ID]bool)
	for _, id := range victims {
		dead[id] = true
		if !opts.SelfHeal {
			if err := svc.Providers.SetDown(id, true); err != nil {
				return res, err
			}
		}
	}
	if opts.SelfHeal {
		KillStores(svc, victims...)
	}
	res.Killed = len(dead)

	// Accounting from placement records alone — probing the stores
	// here would feed the health monitor and contaminate the detection
	// measurement. A replicated chunk needs one surviving copy, a coded
	// chunk k surviving fragments.
	need := 1
	if k, _, on := svc.Router.Coding(); on {
		need = k
	}
	keys := svc.Router.Keys()
	res.Chunks = len(keys)
	for _, key := range keys {
		ids, _ := svc.Router.Locate(key)
		survivors := 0
		for _, id := range ids {
			if !dead[id] {
				survivors++
			}
		}
		if survivors < len(ids) {
			res.Degraded++
		}
		if survivors < need {
			res.Lost++
		}
	}
	res.SurvivedPct = 100 * Ratio(float64(res.Chunks-res.Lost), float64(res.Chunks))

	// Degraded reads: replication fails over, coding reconstructs, and
	// with SelfHeal every failover reports the exact chunk that lost a
	// copy. They may fail only if data is gone.
	if opts.DegradedReads > 0 {
		res.DegradedMBps, err = reads(opts.DegradedReads)
		if err != nil && res.Lost == 0 {
			return res, fmt.Errorf("bench: degraded read phase: %w", err)
		}
		res.DegradedErr = err
	}

	if !opts.SelfHeal {
		start := time.Now()
		res.Repair = svc.Router.Repair()
		res.RepairElapsed = time.Since(start)
		if res.Lost == 0 && (res.Repair.Lost > 0 || res.Repair.Failed > 0) {
			return res, fmt.Errorf("bench: repair after the loss: %+v", res.Repair)
		}
	}
	if res.Lost > 0 {
		return res, nil
	}

	if opts.SelfHeal {
		// Tick until every victim is detected and every chunk is back
		// at full degree and full domain spread, counting virtual time.
		res.Prefed = svc.Healer.Stats().Enqueued
		allDown := func() bool { return Detected(svc, victims...) == len(victims) }
		if allDown() {
			res.DetectTicks = 0
		}
		healed := HealedAndSpread(svc)
		ticks := 0
		start := time.Now()
		res.HealTicks = TickUntil(lossMaxTicks, clock.Tick, func() bool {
			ticks++
			if res.DetectTicks == NotConverged && allDown() {
				res.DetectTicks = ticks
			}
			return healed()
		})
		res.HealElapsed = time.Since(start)
		res.Healer = svc.Healer.Stats()
		if res.HealTicks == NotConverged {
			return res, fmt.Errorf("bench: %s did not heal in %d ticks: %+v", res.Mode, lossMaxTicks, res.Healer)
		}
	}
	// Durability check: every published version must read back.
	if _, err := be.Scrub(); err != nil {
		return res, fmt.Errorf("bench: scrub after recovery: %w", err)
	}
	return res, nil
}
