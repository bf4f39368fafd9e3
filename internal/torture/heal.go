package torture

import (
	"errors"

	"repro/internal/provider"
	"repro/internal/verify"
)

// HealConfig parameterizes one self-healing torture run: the usual
// overlap-heavy workload on a replicated deployment, except the
// seed-scheduled provider dies at the STORE level (its chunk store
// starts erroring) and nobody calls SetDown or Repair — detection,
// re-replication and read-repair must all happen autonomously, within
// a bounded number of virtual-time healer ticks.
type HealConfig struct {
	CrashConfig
	// MaxTicks bounds the healer ticks allowed to restore full
	// replication after each kill (default 400).
	MaxTicks int
}

// HealPlan is the seed-derived schedule: Victim's store dies after
// AfterCalls atomic writes; once the system has healed itself, Second
// (a different provider) dies too.
type HealPlan struct {
	Victim     provider.ID
	AfterCalls int
	Second     provider.ID
}

func (c HealConfig) withDefaults() HealConfig {
	c.CrashConfig = c.CrashConfig.withDefaults()
	if c.MaxTicks <= 0 {
		c.MaxTicks = 400
	}
	return c
}

// Plan derives the schedule from the seed, on its own stream so it is
// independent of the call generator and of CrashConfig.Plan.
func (c HealConfig) Plan() HealPlan {
	c = c.withDefaults()
	rng := planRNG(c.Seed, 0x6865616c2d763100) // "heal-v1"
	victim := provider.ID(rng.Intn(c.Providers))
	second := provider.ID(rng.Intn(c.Providers - 1))
	if second >= victim {
		second++
	}
	return HealPlan{
		Victim:     victim,
		AfterCalls: midWorkload(rng, c.Writers*c.CallsPerWriter),
		Second:     second,
	}
}

// HealReport summarizes one self-healing run.
type HealReport struct {
	Plan        HealPlan
	FailedCalls int   // writes that failed (must be 0 at R >= 2)
	Detected    bool  // the monitor flagged the victim from errors alone
	TicksFirst  int   // healer ticks to restore full replication after kill 1
	TicksSecond int   // ... after kill 2
	Scrubbed    int   // versions read back in full after kill 1 healed
	PostSecond  int   // versions read back in full after kill 2 healed
	Enqueued    int64 // chunks that entered the repair queue (scrub + read-repair)
	Dropped     int64 // enqueues shed by the bounded queue (backpressure)
	Revived     bool  // victim 1 returned to Live after its store recovered
}

// RunHeal executes the self-healing schedule. The contract it checks:
//
//   - Writes keep committing through the store-level kill (write
//     quorum), with zero failures at R >= 2, and the outcome stays
//     serializable.
//   - With NO operator action — no SetDown, no Repair call — the
//     monitor deduces the victim is down from observed store errors,
//     and the scrubber + read-repair queue restore every chunk to full
//     replication within MaxTicks virtual-time ticks.
//   - Every published snapshot then scrubs clean, a SECOND provider
//     loss heals the same way, and the first victim, once its store
//     recovers, is re-probed after probation and returns to service.
func RunHeal(cfg HealConfig) (HealReport, error) {
	if cfg.Replicas < 2 {
		return HealReport{}, errors.New("torture: RunHeal needs R >= 2")
	}
	cfg = cfg.withDefaults()
	perWriter, err := cfg.Calls()
	if err != nil {
		return HealReport{}, err
	}
	rg, err := boot(selfHealEnv(cfg.Providers, cfg.Replicas), cfg.Span())
	if err != nil {
		return HealReport{}, err
	}
	plan := cfg.Plan()
	report := HealReport{Plan: plan}
	svc, be, d := rg.svc, rg.be, rg.d

	// The workload, racing a store-level kill. Note what is absent:
	// no svc.Providers.SetDown, no svc.Router.Repair, ever.
	okCalls, failures := race(d, perWriter, plan.AfterCalls, func() {
		rg.killStores(plan.Victim)
	})

	report.FailedCalls = len(failures)
	if len(failures) > 0 {
		return report, failf(cfg.Seed, "R=%d writes failed despite quorum: %w",
			cfg.Replicas, errors.Join(failures...))
	}

	// Atomicity survives the kill; these degraded reads also feed the
	// read-repair queue with exactly the chunks that needed failover.
	if err := verify.CheckCalls(d, okCalls); err != nil {
		return report, failf(cfg.Seed, "%w", err)
	}

	// Self-healing round 1: no operator, bounded virtual time.
	report.TicksFirst = rg.tickUntil(cfg.MaxTicks, rg.healed)
	if report.TicksFirst == notConverged {
		return report, failf(cfg.Seed, "%d under-replicated chunks remain after %d ticks (victim %d): %+v",
			svc.Router.UnderReplicated(), cfg.MaxTicks, plan.Victim, svc.Healer.Stats())
	}
	report.Detected = svc.Health.State(plan.Victim) == provider.Down
	if !report.Detected {
		return report, failf(cfg.Seed, "victim %d healed around but never marked down (state %s)",
			plan.Victim, svc.Health.State(plan.Victim))
	}
	n, err := be.Scrub()
	report.Scrubbed = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot unreadable after self-heal: %w", err)
	}

	// Round 2: a different provider dies. Replication was restored, so
	// this too must heal without losing any published byte.
	rg.killStores(plan.Second)
	report.TicksSecond = rg.tickUntil(cfg.MaxTicks, rg.healed)
	if report.TicksSecond == notConverged {
		return report, failf(cfg.Seed, "second kill (provider %d) did not heal in %d ticks: %+v",
			plan.Second, cfg.MaxTicks, svc.Healer.Stats())
	}
	n, err = be.Scrub()
	report.PostSecond = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot unreadable after second self-heal: %w", err)
	}

	// Recovery: the first victim's store comes back; probation probes
	// must return it to service without operator action.
	svc.Faults[plan.Victim].SetDown(false)
	report.Revived = rg.tickUntil(cfg.MaxTicks, func() bool {
		return svc.Health.State(plan.Victim) == provider.Live
	}) != notConverged
	if !report.Revived {
		return report, failf(cfg.Seed, "victim %d never revived after its store recovered (state %s)",
			plan.Victim, svc.Health.State(plan.Victim))
	}

	st := svc.Healer.Stats()
	report.Enqueued = st.Enqueued
	report.Dropped = st.Dropped
	return report, nil
}
