package torture

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/provider"
	"repro/internal/verify"
)

// CodedConfig parameterizes the erasure-coded correlated-loss torture
// run: the usual overlap-heavy workload on an rs-k+m deployment whose
// fragments spread one-per-domain, except the seed-scheduled loss
// takes out TWO whole failure domains — the first mid-workload (writes
// must keep committing at quorum n-1), the second after the last write
// but BEFORE any healing, so every read of every chunk faces exactly
// two missing fragments and must reconstruct from the surviving k.
// Both kills are store-level with self-heal on: nobody calls SetDown
// or Repair, detection and re-encode repair must be autonomous.
type CodedConfig struct {
	CrashConfig
	// Coding is the placement spec (default "rs-4+2"). Replicas must
	// stay zero: the schedule exists for the coded mode.
	Coding string
	// Domains is the failure-domain count (must be >= k+m so the
	// spread places at most one fragment of any chunk per domain, and
	// the two-domain loss costs each chunk at most two fragments;
	// default 6).
	Domains int
	// MaxTicks bounds the healer ticks allowed to re-encode every
	// chunk back to full degree after the kills (default 400).
	MaxTicks int
}

// CodedPlan is the seed-derived schedule: every provider of
// FirstDomain dies after AfterCalls atomic writes, every provider of
// SecondDomain dies once the workload drains — two distinct domains,
// so the read path sees the worst survivable loss (m=2 fragments at
// rs-4+2) before repair gets a tick.
type CodedPlan struct {
	FirstDomain   int
	SecondDomain  int
	AfterCalls    int
	FirstVictims  []provider.ID
	SecondVictims []provider.ID
}

func (c CodedConfig) withDefaults() CodedConfig {
	if c.Coding == "" {
		c.Coding = "rs-4+2"
	}
	if c.Providers <= 0 {
		c.Providers = 12
	}
	if c.Domains <= 0 {
		c.Domains = 6
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 400
	}
	return c
}

// Plan derives the schedule from the seed, on its own stream so it is
// independent of the call generator and the other schedule families.
func (c CodedConfig) Plan() CodedPlan {
	c = c.withDefaults()
	rng := planRNG(c.Seed, 0x636f6465642d7631) // "coded-v1"
	perm := rng.Perm(c.Domains)
	return CodedPlan{
		FirstDomain:   perm[0],
		SecondDomain:  perm[1],
		AfterCalls:    midWorkload(rng, c.Writers*c.CallsPerWriter),
		FirstVictims:  domainVictims(c.Providers, c.Domains, perm[0]),
		SecondVictims: domainVictims(c.Providers, c.Domains, perm[1]),
	}
}

// CodedReport summarizes one coded correlated-loss run.
type CodedReport struct {
	Plan        CodedPlan
	FailedCalls int   // writes that failed (must be 0: quorum n-1 absorbs one dead domain)
	Detected    int   // victims the monitor flagged down from errors alone
	Ticks       int   // healer ticks to full degree AND achievable spread
	Scrubbed    int   // versions read back in full after the heal
	SpreadFound int64 // spread violations the scrubber fed into repair
	Enqueued    int64 // chunks that entered the repair queue
	Dropped     int64 // enqueues shed by the bounded queue
}

// codedEnv is the self-healing deployment (see selfHealEnv) on
// erasure-coded, domain-spread placement.
func codedEnv(cfg CodedConfig) cluster.Env {
	env := selfHealEnv(cfg.Providers, 0)
	env.Coding = cfg.Coding
	env.Domains = cfg.Domains
	return env
}

// RunCodedDomain executes the two-domain-loss schedule on erasure-coded
// placement. The contract it checks:
//
//   - Writes keep committing through the loss of a whole failure
//     domain (one-fragment-per-domain placement means each chunk loses
//     at most one of its k+m fragments; the default n-1 write quorum
//     absorbs that), with zero failures, and the outcome stays
//     serializable.
//   - With a SECOND whole domain dead before any repair, every chunk
//     is missing m=2 fragments — the worst survivable loss — and every
//     read still returns byte-identical data by reconstructing from
//     the surviving k fragments.
//   - With NO operator action the monitor deduces every victim of both
//     domains is down, and the healer re-encodes every chunk back to
//     full k+m degree into the surviving domains within MaxTicks
//     virtual-time ticks, leaving no fragment referenced in either
//     dead domain and the spread audit clean.
//   - Every published snapshot then scrubs clean.
func RunCodedDomain(cfg CodedConfig) (CodedReport, error) {
	if cfg.Replicas != 0 {
		return CodedReport{}, fmt.Errorf("torture: RunCodedDomain is the coded schedule; Replicas must be 0, got %d", cfg.Replicas)
	}
	cfg = cfg.withDefaults()
	k, m, err := provider.ParseCoding(cfg.Coding)
	if err != nil {
		return CodedReport{}, fmt.Errorf("torture: %w", err)
	}
	if m < 2 {
		return CodedReport{}, fmt.Errorf("torture: RunCodedDomain kills two domains; %s (m=%d) cannot survive it", cfg.Coding, m)
	}
	if cfg.Domains < k+m {
		return CodedReport{}, fmt.Errorf("torture: RunCodedDomain needs Domains >= k+m (got %d < %d): a domain must never hold two fragments of one chunk",
			cfg.Domains, k+m)
	}
	perDomain := cfg.Providers / cfg.Domains
	if cfg.Providers-2*perDomain < k+m {
		return CodedReport{}, fmt.Errorf("torture: %d providers minus two domains of %d leave fewer than %d for full-degree repair",
			cfg.Providers, perDomain, k+m)
	}
	perWriter, err := cfg.Calls()
	if err != nil {
		return CodedReport{}, err
	}
	rg, err := boot(codedEnv(cfg), cfg.Span())
	if err != nil {
		return CodedReport{}, err
	}
	plan := cfg.Plan()
	report := CodedReport{Plan: plan}
	svc, be, d := rg.svc, rg.be, rg.d

	// The workload, racing the first whole-domain store-level kill. No
	// SetDown, no Repair — ever.
	okCalls, failures := race(d, perWriter, plan.AfterCalls, func() { rg.killStores(plan.FirstVictims...) })

	report.FailedCalls = len(failures)
	if len(failures) > 0 {
		return report, failf(cfg.Seed, "%s writes failed despite one-fragment-per-domain spread + n-1 quorum: %w",
			cfg.Coding, errors.Join(failures...))
	}

	// Second domain dies before repair gets a tick: every chunk is now
	// missing up to m fragments, and atomicity must survive on pure
	// reconstruction — any k of the surviving fragments rebuild the
	// exact original bytes.
	rg.killStores(plan.SecondVictims...)
	if err := verify.CheckCalls(reader{d}, okCalls); err != nil {
		return report, failf(cfg.Seed, "degraded reconstruction at m=%d losses: %w", m, err)
	}

	// Autonomous healing: converged means the repair queue is drained,
	// every chunk is back at full k+m degree, AND the spread audit is
	// clean against the surviving domains (fragments double up where
	// the domain count no longer covers the degree — that is the
	// audit's achievable bound, not a violation).
	report.Ticks = rg.tickUntil(cfg.MaxTicks, rg.healedAndSpread)
	if report.Ticks == notConverged {
		return report, failf(cfg.Seed, "%d under-replicated / %d spread-violated chunks remain after %d ticks (domains %d+%d = %v+%v): %+v",
			svc.Router.UnderReplicated(), len(svc.Router.SpreadAudit()), cfg.MaxTicks,
			plan.FirstDomain, plan.SecondDomain, plan.FirstVictims, plan.SecondVictims, svc.Healer.Stats())
	}
	victims := append(append([]provider.ID(nil), plan.FirstVictims...), plan.SecondVictims...)
	report.Detected = rg.detected(victims...)
	if report.Detected != len(victims) {
		return report, failf(cfg.Seed, "only %d of %d domain victims detected down: %v",
			report.Detected, len(victims), victims)
	}
	// No fragment may remain referenced in either dead domain: its
	// stores are gone, so a reference there is a latent degraded read.
	first, second := fmt.Sprintf("zone%d", plan.FirstDomain), fmt.Sprintf("zone%d", plan.SecondDomain)
	if key, ids, found := rg.placedIn(first, second); found {
		return report, failf(cfg.Seed, "chunk %s still placed in a dead domain (%s, %s): %v", key, first, second, ids)
	}
	n, err := be.Scrub()
	report.Scrubbed = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot unreadable after coded domain loss healed: %w", err)
	}

	st := svc.Healer.Stats()
	report.SpreadFound = st.SpreadFound
	report.Enqueued = st.Enqueued
	report.Dropped = st.Dropped
	return report, nil
}
