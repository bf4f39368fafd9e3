package torture

import (
	"errors"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/provider"
	"repro/internal/verify"
)

// CrashConfig parameterizes one provider-crash torture run: the usual
// overlap-heavy workload, executed on a versioning deployment with
// replication degree Replicas over Providers data providers, while a
// seed-scheduled provider dies mid-workload.
type CrashConfig struct {
	Config
	// Replicas is the replication degree R (>= 1).
	Replicas int
	// Providers is the data-provider pool size (default 8).
	Providers int
}

// CrashPlan is the seed-derived crash schedule: Victim dies once
// AfterCalls atomic writes have completed. Both values come from the
// config's seed alone, so a failing run replays exactly.
type CrashPlan struct {
	Victim     provider.ID
	AfterCalls int
}

func (c CrashConfig) withDefaults() CrashConfig {
	if c.Replicas < 1 {
		c.Replicas = 1
	}
	if c.Providers <= 0 {
		c.Providers = 8
	}
	return c
}

// Plan derives the crash schedule from the seed. The kill lands in the
// middle half of the workload so writes race it from both sides.
func (c CrashConfig) Plan() CrashPlan {
	c = c.withDefaults()
	// A distinct stream from the call generator: same seed, different
	// constant, so schedule and calls stay independently replayable.
	rng := planRNG(c.Seed, 0x63726173682d7631) // "crash-v1"
	return CrashPlan{
		Victim:     provider.ID(rng.Intn(c.Providers)),
		AfterCalls: midWorkload(rng, c.Writers*c.CallsPerWriter),
	}
}

// CrashReport summarizes one crash run.
type CrashReport struct {
	Plan        CrashPlan
	FailedCalls int  // writes that failed (possible only at R=1)
	DataLoss    bool // a published snapshot lost bytes (R=1 only)
	Scrubbed    int  // versions read back in full after the crash
	Repair      provider.RepairStats
	PostRepair  int // versions scrubbed after repair plus a second kill
}

// RunCrash executes the crash schedule against a replicated versioning
// deployment and checks the suite's durability contract:
//
//   - Writes keep committing: allocation routes around the dead
//     provider, and the write quorum absorbs a mid-flight loss. With
//     R >= 2 every call must succeed; with R = 1 calls racing the
//     crash may fail (and are excluded from the serializability
//     check), which is the exposure replication removes.
//   - The final state is serializable over the successful calls (MPI
//     atomicity survives the crash).
//   - With R >= 2 every published snapshot remains fully readable via
//     replica failover, a repair pass restores full replication
//     degree, and after a second provider loss every snapshot is
//     still readable — committed data survives any single machine
//     loss, repeatedly, as long as repairs run between losses.
//   - With R = 1 a detected data loss is reported, not failed: it is
//     the motivating deficiency, asserted by its test.
func RunCrash(cfg CrashConfig) (CrashReport, error) {
	cfg = cfg.withDefaults()
	perWriter, err := cfg.Calls()
	if err != nil {
		return CrashReport{}, err
	}
	env := cluster.Default()
	env.Providers = cfg.Providers
	env.Replicas = cfg.Replicas
	rg, err := boot(env, cfg.Span())
	if err != nil {
		return CrashReport{}, err
	}
	plan := cfg.Plan()
	report := CrashReport{Plan: plan}
	svc, be, d := rg.svc, rg.be, rg.d

	// The kill is administrative: the victim is flagged down, as an
	// operator or a detector would (the heal schedule is the one where
	// nobody tells the system).
	okCalls, failures := race(d, perWriter, plan.AfterCalls, func() {
		_ = svc.Providers.SetDown(plan.Victim, true)
	})

	report.FailedCalls = len(failures)
	if cfg.Replicas >= 2 && len(failures) > 0 {
		return report, failf(cfg.Seed, "R=%d writes failed despite quorum: %w",
			cfg.Replicas, errors.Join(failures...))
	}
	for _, err := range failures {
		// At R=1 only crash-induced failures are tolerated.
		if !errors.Is(err, provider.ErrProviderDown) && !errors.Is(err, provider.ErrInsufficientProviders) {
			return report, failf(cfg.Seed, "unexpected write failure: %w", err)
		}
	}

	// MPI atomicity over the calls that committed.
	if err := verify.CheckCalls(reader{d}, okCalls); err != nil {
		if cfg.Replicas == 1 && isLossErr(err) {
			report.DataLoss = true
			return report, nil
		}
		return report, failf(cfg.Seed, "%w", err)
	}

	if cfg.Replicas == 1 {
		// Snapshots referencing chunks on the dead provider may or may
		// not exist; nothing further to assert.
		return report, nil
	}

	// Durability: every published snapshot fully readable via failover.
	n, err := be.Scrub()
	report.Scrubbed = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot lost after single provider crash: %w", err)
	}

	// Repair restores full degree...
	report.Repair = svc.Router.Repair()
	if report.Repair.Lost > 0 || report.Repair.Failed > 0 || report.Repair.Repaired != report.Repair.Degraded {
		return report, failf(cfg.Seed, "repair incomplete: %+v", report.Repair)
	}
	// ...so a second, different provider loss is also survivable.
	second := provider.ID((int(plan.Victim) + 1) % cfg.Providers)
	if err := svc.Providers.SetDown(second, true); err != nil {
		return report, err
	}
	n, err = be.Scrub()
	report.PostRepair = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot lost after repair + second crash: %w", err)
	}
	return report, nil
}

// isLossErr reports whether a verification failure traces back to an
// unreadable (dead) provider rather than an atomicity violation.
func isLossErr(err error) bool {
	return errors.Is(err, provider.ErrProviderDown) || errors.Is(err, chunk.ErrDown)
}
