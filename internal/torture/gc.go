package torture

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/provider"
	"repro/internal/verify"
	"repro/internal/vmanager"
)

// GCConfig parameterizes one version-lifecycle torture run: the usual
// overlap-heavy workload on a replicated self-healing deployment, with
// the retention policy and the reaper running CONTINUOUSLY against it
// — versions are dropped and their exclusive chunks deleted while
// writers publish, a reader holds an old version pinned, and a
// seed-scheduled provider dies at the store level mid-run.
type GCConfig struct {
	CrashConfig
	// KeepLast is the retention policy the reaper applies at every
	// pass (default 3).
	KeepLast int
	// MaxTicks bounds each post-workload convergence loop: healing to
	// full replication, and reaping to an empty pending set
	// (default 600).
	MaxTicks int
}

// GCPlan is the seed-derived schedule: Victim's store dies after
// AfterCalls atomic writes, racing the continuous retain/reap loop.
type GCPlan struct {
	Victim     provider.ID
	AfterCalls int
}

func (c GCConfig) withDefaults() GCConfig {
	c.CrashConfig = c.CrashConfig.withDefaults()
	if c.KeepLast <= 0 {
		c.KeepLast = 3
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 600
	}
	return c
}

// Plan derives the schedule from the seed, on its own stream so it is
// independent of the call generator and of the crash/heal streams.
func (c GCConfig) Plan() GCPlan {
	c = c.withDefaults()
	rng := planRNG(c.Seed, 0x67632d736368656d) // "gc-schem"
	return GCPlan{
		Victim:     provider.ID(rng.Intn(c.Providers)),
		AfterCalls: midWorkload(rng, c.Writers*c.CallsPerWriter),
	}
}

// GCReport summarizes one version-lifecycle torture run.
type GCReport struct {
	Plan          GCPlan
	FailedCalls   int    // writes that failed (must be 0 at R >= 2)
	Detected      bool   // the monitor flagged the victim from errors alone
	HealTicks     int    // ticks to full re-replication after the kill
	PinnedVersion uint64 // the version the reader held pinned
	PinnedReads   int    // clean re-reads of the pinned version under GC fire
	Scrubbed      int    // retained versions read back in full at the end
	DroppedTotal  int64  // versions dropped by the continuous policy
	Reclaimed     int64  // versions fully reclaimed
	Exclusive     int    // pinned version's exclusive chunks verified deleted
	DeletedBytes  int64  // bytes the reaper freed in total
	Stats         string // reaper stats (diagnostics)
}

// gcEnv pins the deployment knobs so the schedule is reproducible:
// self-heal as in the heal schedule (see selfHealEnv: threshold 2,
// small queue so backpressure is exercised) and the reaper with the
// configured retention applied continuously at a bounded delete rate.
func gcEnv(cfg GCConfig) cluster.Env {
	env := selfHealEnv(cfg.Providers, cfg.Replicas)
	env.GC = true
	env.Reaper.RetainLast = cfg.KeepLast
	env.Reaper.DeletesPerTick = 8
	env.Reaper.QueueDepth = 64
	return env
}

// RunGC executes the version-lifecycle schedule. The contract:
//
//   - Writes keep committing through the store-level kill AND the
//     continuous retain/reap traffic (zero failures at R >= 2), and
//     the outcome stays serializable.
//   - A reader that pinned an early version before dropping began can
//     re-read it, byte-identical, for as long as it holds the pin —
//     through the provider loss, the self-heal and every GC pass.
//   - The victim is detected from errors alone and every chunk is
//     re-replicated within MaxTicks, exactly as without GC.
//   - Every retained version scrubs clean afterward (shared chunks
//     survive), and once the reader unpins and retention drops its
//     version, the version's exclusive chunks are REMOVED from every
//     live replica (verified store-by-store, and against usage
//     accounting), with the pending set fully drained.
func RunGC(cfg GCConfig) (GCReport, error) {
	if cfg.Replicas < 2 {
		return GCReport{}, errors.New("torture: RunGC needs R >= 2")
	}
	cfg = cfg.withDefaults()
	perWriter, err := cfg.Calls()
	if err != nil {
		return GCReport{}, err
	}
	rg, err := boot(gcEnv(cfg), cfg.Span())
	if err != nil {
		return GCReport{}, err
	}
	plan := cfg.Plan()
	report := GCReport{Plan: plan}
	svc, be, d := rg.svc, rg.be, rg.d
	b := be.Blob()

	// Continuous GC: heal and reap concurrently with the workload.
	stopTicker := bench.TickEvery(100*time.Microsecond, rg.clock.Tick)

	// The pinned reader: pin the earliest version still retained,
	// remember its bytes, and re-read it under fire until the workload
	// ends. The pin is what must keep those bytes alive through every
	// retention pass.
	readerErr := make(chan error, 1)
	var pinnedV atomic.Uint64
	var pinnedReads atomic.Int64
	readerDone := make(chan struct{})
	stopReader := make(chan struct{})
	go func() {
		defer close(readerDone)
		// Version 1 may not even be ticketed yet when the reader
		// starts; WaitPublished rejects unassigned versions, so poll
		// until the first writer has a ticket.
		for b.WaitPublished(1) != nil {
			select {
			case <-stopReader:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
		var v uint64
		for v = 1; ; v++ {
			err := b.Pin(v)
			if err == nil {
				break
			}
			if errors.Is(err, vmanager.ErrVersionDropped) {
				continue // retention beat us to this one; try the next
			}
			readerErr <- err
			return
		}
		pinnedV.Store(v)
		size, err := b.Size(v)
		if err != nil {
			readerErr <- err
			return
		}
		want, err := b.ReadAt(v, 0, size)
		if err != nil {
			readerErr <- err
			return
		}
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			got, err := b.ReadAt(v, 0, size)
			if err != nil {
				readerErr <- fmt.Errorf("pinned v%d unreadable: %w", v, err)
				return
			}
			if !bytes.Equal(want, got) {
				readerErr <- fmt.Errorf("pinned v%d changed under GC", v)
				return
			}
			pinnedReads.Add(1)
		}
	}()

	// The workload, racing a store-level kill and the retain/reap loop.
	okCalls, failures := race(d, perWriter, plan.AfterCalls, func() {
		bench.KillStores(svc, plan.Victim)
	})
	awaitFirst(&pinnedReads, readerErr)
	close(stopReader)
	<-readerDone
	stopTicker()

	report.FailedCalls = len(failures)
	report.PinnedVersion = pinnedV.Load()
	report.PinnedReads = int(pinnedReads.Load())
	if len(failures) > 0 {
		return report, failf(cfg.Seed, "R=%d writes failed under GC: %w", cfg.Replicas, errors.Join(failures...))
	}
	select {
	case err := <-readerErr:
		return report, failf(cfg.Seed, "pinned reader: %w", err)
	default:
	}
	if report.PinnedReads == 0 {
		return report, failf(cfg.Seed, "pinned reader never completed a read — schedule lost its teeth")
	}

	// Serializability of the surviving latest state.
	if err := verify.CheckCalls(d, okCalls); err != nil {
		return report, failf(cfg.Seed, "%w", err)
	}

	// Self-heal to quiescence under the same tick loop GC shares.
	report.HealTicks = rg.tickUntil(cfg.MaxTicks, bench.Healed(svc))
	if report.HealTicks == bench.NotConverged {
		return report, failf(cfg.Seed, "%d under-replicated chunks after %d ticks (victim %d)",
			svc.Router.UnderReplicated(), cfg.MaxTicks, plan.Victim)
	}
	report.Detected = svc.Health.State(plan.Victim) == provider.Down
	if !report.Detected {
		return report, failf(cfg.Seed, "victim %d never detected (state %s)",
			plan.Victim, svc.Health.State(plan.Victim))
	}

	// The pinned version survived everything; release it, drop it, and
	// prove its exclusive bytes actually come back from every live
	// replica.
	pv := report.PinnedVersion
	sizePinned, err := b.Size(pv)
	if err != nil {
		return report, failf(cfg.Seed, "pinned version lost before unpin: %w", err)
	}
	if _, err := b.ReadAt(pv, 0, sizePinned); err != nil {
		return report, failf(cfg.Seed, "pinned version unreadable before unpin: %w", err)
	}
	if err := b.Unpin(pv); err != nil {
		return report, err
	}
	dropped, err := b.Retain(cfg.KeepLast)
	if err != nil {
		return report, err
	}
	droppedPinned := false
	for _, v := range dropped {
		if v == pv {
			droppedPinned = true
		}
	}
	if !droppedPinned {
		return report, failf(cfg.Seed, "unpinned v%d not dropped by retention (dropped %v) — schedule lost its teeth",
			pv, dropped)
	}
	exclusive, err := b.ExclusiveChunks(pv)
	if err != nil {
		return report, err
	}
	report.Exclusive = len(exclusive)

	// Reap to a drained pending set, with usage watched across it.
	usageBefore := liveBytes(svc)
	statsBefore := svc.Reaper.Stats()
	drained := rg.tickUntil(cfg.MaxTicks, bench.Drained(be, &err)) != bench.NotConverged
	if err != nil {
		return report, err
	}
	st := svc.Reaper.Stats()
	report.DroppedTotal = st.AutoDropped + int64(len(dropped))
	report.Reclaimed = st.Reclaimed
	report.DeletedBytes = st.DeletedBytes
	report.Stats = fmt.Sprintf("%+v", st)
	if !drained {
		return report, failf(cfg.Seed, "pending versions not reclaimed in %d ticks: %+v", cfg.MaxTicks, st)
	}
	if st.Deleted == 0 {
		return report, failf(cfg.Seed, "continuous GC deleted nothing — schedule lost its teeth: %+v", st)
	}

	// The pinned version's exclusive chunks are gone from EVERY live
	// replica (store-level probes — the bsctl usage substrate).
	for _, key := range exclusive {
		if _, ok := svc.Router.Locate(key); ok {
			report.Stats = fmt.Sprintf("%+v", svc.Reaper.Stats())
			return report, failf(cfg.Seed, "reclaimed chunk %s still placed", key)
		}
		for _, p := range svc.Providers.Providers() {
			if p.Down() {
				continue // dead machine: unreachable copy, not a live replica
			}
			if _, err := p.Store().Len(key); !errors.Is(err, chunk.ErrNotFound) {
				return report, failf(cfg.Seed, "live provider %d still holds reclaimed chunk %s (%v)",
					p.ID(), key, err)
			}
		}
	}
	// Usage accounting agrees with the deletion stats.
	if freed, claimed := usageBefore-liveBytes(svc), st.DeletedBytes-statsBefore.DeletedBytes; freed != claimed {
		return report, failf(cfg.Seed, "usage shrank by %d bytes but the reaper claims %d", freed, claimed)
	}

	// Shared chunks survive: every retained version scrubs clean.
	n, err := be.Scrub()
	report.Scrubbed = n
	if err != nil {
		return report, failf(cfg.Seed, "retained version failed scrub after GC: %w", err)
	}
	vs, err := b.Versions()
	if err != nil {
		return report, err
	}
	if n != len(vs) {
		return report, failf(cfg.Seed, "scrubbed %d of %d retained versions", n, len(vs))
	}
	return report, nil
}

// liveBytes sums stored bytes across providers not flagged down.
func liveBytes(svc *cluster.Versioning) int64 {
	var total int64
	for _, u := range svc.Router.Usage() {
		if !u.Down {
			total += u.Bytes
		}
	}
	return total
}
