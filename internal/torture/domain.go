package torture

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/provider"
	"repro/internal/verify"
)

// DomainConfig parameterizes one correlated-loss torture run: the
// usual overlap-heavy workload on a replicated deployment whose
// providers are split into failure domains, except the seed-scheduled
// loss takes out EVERY provider of one whole domain at once — the
// rack/zone failure independent-loss replication cannot survive. The
// kill is store-level with self-heal on: nobody calls SetDown or
// Repair, detection and domain-aware re-replication must be
// autonomous.
type DomainConfig struct {
	CrashConfig
	// Domains is the failure-domain count (must exceed Replicas so a
	// whole-domain loss leaves enough domains for the spread
	// invariant; default 4).
	Domains int
	// MaxTicks bounds the healer ticks allowed to restore full
	// replication AND full domain spread after the kill (default 400).
	MaxTicks int
}

// DomainPlan is the seed-derived schedule: every provider of
// VictimDomain dies at once after AfterCalls atomic writes. Victims
// lists them (the contiguous block cluster.Env.Domains carves out).
type DomainPlan struct {
	VictimDomain int
	AfterCalls   int
	Victims      []provider.ID
}

func (c DomainConfig) withDefaults() DomainConfig {
	c.CrashConfig = c.CrashConfig.withDefaults()
	if c.Domains <= 0 {
		c.Domains = 4
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 400
	}
	return c
}

// Plan derives the schedule from the seed, on its own stream so it is
// independent of the call generator and of the other schedule
// families.
func (c DomainConfig) Plan() DomainPlan {
	c = c.withDefaults()
	rng := planRNG(c.Seed, 0x646f6d61696e2d31) // "domain-1"
	victim := rng.Intn(c.Domains)
	return DomainPlan{
		VictimDomain: victim,
		AfterCalls:   midWorkload(rng, c.Writers*c.CallsPerWriter),
		Victims:      domainVictims(c.Providers, c.Domains, victim),
	}
}

// DomainReport summarizes one correlated-loss run.
type DomainReport struct {
	Plan        DomainPlan
	FailedCalls int   // writes that failed (must be 0 at R >= 2 with spread)
	Detected    int   // victims the monitor flagged down from errors alone
	Ticks       int   // healer ticks to full re-replication AND full spread
	Scrubbed    int   // versions read back in full after the heal
	SpreadFound int64 // spread violations the scrubber fed into repair
	Enqueued    int64 // chunks that entered the repair queue
	Dropped     int64 // enqueues shed by the bounded queue
}

// domainEnv is the self-healing deployment (see selfHealEnv) with the
// failure-domain split under test.
func domainEnv(cfg DomainConfig) cluster.Env {
	env := selfHealEnv(cfg.Providers, cfg.Replicas)
	env.Domains = cfg.Domains
	return env
}

// RunDomain executes the correlated-loss schedule with domain-spread
// placement. The contract it checks:
//
//   - Writes keep committing through the loss of a whole failure
//     domain (spread placement puts at most one replica of any chunk
//     there; the write quorum absorbs that one), with zero failures at
//     R >= 2, and the outcome stays serializable.
//   - With NO operator action the monitor deduces every victim is
//     down, and the healer re-replicates every chunk into the
//     SURVIVING domains — restoring the distinct-domain spread, not
//     just the count — within MaxTicks virtual-time ticks.
//   - Every published snapshot then scrubs clean and no chunk's
//     replicas share a failure domain (the next domain loss is
//     survivable too).
func RunDomain(cfg DomainConfig) (DomainReport, error) {
	if cfg.Replicas < 2 {
		return DomainReport{}, errors.New("torture: RunDomain needs R >= 2")
	}
	cfg = cfg.withDefaults()
	if cfg.Domains <= cfg.Replicas {
		return DomainReport{}, fmt.Errorf("torture: RunDomain needs Domains > Replicas (got %d <= %d): a domain loss must leave enough domains for the spread invariant",
			cfg.Domains, cfg.Replicas)
	}
	perWriter, err := cfg.Calls()
	if err != nil {
		return DomainReport{}, err
	}
	rg, err := boot(domainEnv(cfg), cfg.Span())
	if err != nil {
		return DomainReport{}, err
	}
	plan := cfg.Plan()
	report := DomainReport{Plan: plan}
	svc, be, d := rg.svc, rg.be, rg.d

	// The workload, racing the whole-domain store-level kill. No
	// SetDown, no Repair — ever.
	okCalls, failures := race(d, perWriter, plan.AfterCalls, func() { rg.killStores(plan.Victims...) })

	report.FailedCalls = len(failures)
	if len(failures) > 0 {
		return report, failf(cfg.Seed, "R=%d writes failed despite domain spread + quorum: %w",
			cfg.Replicas, errors.Join(failures...))
	}

	// Atomicity survives the correlated loss (degraded reads fail over
	// to the replicas in surviving domains and feed read-repair).
	if err := verify.CheckCalls(d, okCalls); err != nil {
		return report, failf(cfg.Seed, "%w", err)
	}

	// Autonomous healing: converged means the repair queue is drained,
	// every chunk is back at full degree, AND no chunk's replicas
	// share a failure domain — count and spread both restored.
	report.Ticks = rg.tickUntil(cfg.MaxTicks, rg.healedAndSpread)
	if report.Ticks == notConverged {
		return report, failf(cfg.Seed, "%d under-replicated / %d spread-violated chunks remain after %d ticks (domain %d = %v): %+v",
			svc.Router.UnderReplicated(), len(svc.Router.SpreadAudit()), cfg.MaxTicks,
			plan.VictimDomain, plan.Victims, svc.Healer.Stats())
	}
	report.Detected = rg.detected(plan.Victims...)
	if report.Detected != len(plan.Victims) {
		return report, failf(cfg.Seed, "only %d of %d domain victims detected down: %v",
			report.Detected, len(plan.Victims), plan.Victims)
	}
	// No replica may remain placed in the dead domain: its stores are
	// gone, so a reference there is a latent read failure.
	deadLabel := fmt.Sprintf("zone%d", plan.VictimDomain)
	if key, ids, found := rg.placedIn(deadLabel); found {
		return report, failf(cfg.Seed, "chunk %s still placed in dead domain %s: %v", key, deadLabel, ids)
	}
	n, err := be.Scrub()
	report.Scrubbed = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot unreadable after domain loss healed: %w", err)
	}

	st := svc.Healer.Stats()
	report.SpreadFound = st.SpreadFound
	report.Enqueued = st.Enqueued
	report.Dropped = st.Dropped
	return report, nil
}

// FlatReport summarizes the flat-placement control run.
type FlatReport struct {
	Plan       DomainPlan
	LostChunks int // chunks with no surviving copy (must be > 0: the exposure)
	LossSeen   bool
}

// RunDomainFlat is the control experiment: the SAME seed, workload and
// whole-domain kill, but on a flat single-domain pool — placement is
// free to co-locate a chunk's replicas on machines that fail together.
// It witnesses the data loss that domain-spread placement prevents:
// the run fails unless at least one published chunk loses every copy
// and a snapshot read reports the loss.
func RunDomainFlat(cfg DomainConfig) (FlatReport, error) {
	if cfg.Replicas < 2 {
		return FlatReport{}, errors.New("torture: RunDomainFlat needs R >= 2 (R=1 loss is RunCrash's witness)")
	}
	cfg = cfg.withDefaults()
	perWriter, err := cfg.Calls()
	if err != nil {
		return FlatReport{}, err
	}
	env := cluster.Default()
	env.Providers = cfg.Providers
	env.Replicas = cfg.Replicas
	env.FaultInjection = true
	// No Domains, no SelfHeal: the pre-spread deployment.
	rg, err := boot(env, cfg.Span())
	if err != nil {
		return FlatReport{}, err
	}
	plan := cfg.Plan()
	report := FlatReport{Plan: plan}
	svc, be := rg.svc, rg.be

	// Write failures are expected here: with both copies of a chunk
	// allocated inside the dying block, the quorum itself is
	// unsatisfiable. The control run measures loss, not availability.
	race(rg.d, perWriter, plan.AfterCalls, func() { rg.killStores(plan.Victims...) })

	// Count chunks with no surviving copy: every recorded replica's
	// store is dead.
	byID := make(map[provider.ID]*provider.Provider, cfg.Providers)
	for _, p := range svc.Providers.Providers() {
		byID[p.ID()] = p
	}
	for _, key := range svc.Router.Keys() {
		ids, _ := svc.Router.Locate(key)
		survivors := 0
		for _, id := range ids {
			if p := byID[id]; p != nil {
				if _, err := p.Store().Len(key); err == nil {
					survivors++
				}
			}
		}
		if survivors == 0 {
			report.LostChunks++
		}
	}
	if _, err := be.Scrub(); err != nil {
		report.LossSeen = true
	}
	if report.LostChunks == 0 || !report.LossSeen {
		return report, failf(cfg.Seed, "flat control lost nothing (lost=%d, scrubFailed=%v) — the exposure the domain schedule exists to witness did not occur",
			report.LostChunks, report.LossSeen)
	}
	return report, nil
}
