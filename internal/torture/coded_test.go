package torture

import (
	"testing"
)

// codedConfig is the standard coded correlated-loss schedule shape:
// the usual torture workload at rs-4+2 over 12 providers in 6 failure
// domains (one fragment per domain per chunk), two whole domains
// killed, 400 virtual ticks to heal.
func codedConfig(seed int64) CodedConfig {
	return CodedConfig{
		CrashConfig: CrashConfig{
			Config:    tortureConfig(seed),
			Providers: 12,
		},
		Coding:  "rs-4+2",
		Domains: 6,
	}
}

// TestCodedDomainKillSchedule is the erasure-coded correlated-loss
// torture suite: one whole failure domain dies mid-workload (writes
// keep committing at quorum n-1), a second dies before any healing
// (every read reconstructs at the worst survivable loss, m=2
// fragments), and self-healing must then re-encode everything back to
// full degree — zero failed writes, serializable outcome, every victim
// detected, no fragment left in either dead domain, every snapshot
// scrubbing clean.
func TestCodedDomainKillSchedule(t *testing.T) {
	for _, seed := range seeds(t) {
		rep, err := RunCodedDomain(codedConfig(seed))
		if err != nil {
			t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
		}
		if rep.FailedCalls != 0 {
			t.Fatalf("seed %d: %d writes failed at rs-4+2", seed, rep.FailedCalls)
		}
		if rep.Detected != len(rep.Plan.FirstVictims)+len(rep.Plan.SecondVictims) {
			t.Fatalf("seed %d: %d victims detected of %+v", seed, rep.Detected, rep.Plan)
		}
		if rep.Scrubbed == 0 {
			t.Fatalf("seed %d: nothing scrubbed after heal: %+v", seed, rep)
		}
		if rep.Enqueued == 0 {
			t.Fatalf("seed %d: two-domain kill after %d calls enqueued no repairs — schedule lost its teeth (domains %d+%d)",
				seed, rep.Plan.AfterCalls, rep.Plan.FirstDomain, rep.Plan.SecondDomain)
		}
		t.Logf("seed %d rs-4+2: domains %d+%d (%d providers) healed in %d ticks, %d enqueued (%d spread violations, %d dropped)",
			seed, rep.Plan.FirstDomain, rep.Plan.SecondDomain,
			len(rep.Plan.FirstVictims)+len(rep.Plan.SecondVictims), rep.Ticks, rep.Enqueued, rep.SpreadFound, rep.Dropped)
	}
}

// TestCodedPlanDeterminism: equal seeds derive equal schedules, the
// two victim domains are distinct, victims exactly cover the two
// domain blocks, the kill point lands mid-workload, and the stream is
// independent of the replicated domain family.
func TestCodedPlanDeterminism(t *testing.T) {
	a := codedConfig(5).Plan()
	b := codedConfig(5).Plan()
	if a.FirstDomain != b.FirstDomain || a.SecondDomain != b.SecondDomain || a.AfterCalls != b.AfterCalls {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		p := codedConfig(seed).Plan()
		if p.FirstDomain == p.SecondDomain {
			t.Fatalf("seed %d: both kills target domain %d", seed, p.FirstDomain)
		}
		if len(p.FirstVictims) != 2 || len(p.SecondVictims) != 2 {
			t.Fatalf("seed %d: victim blocks %v / %v, want 2 providers each (12 providers / 6 domains)",
				seed, p.FirstVictims, p.SecondVictims)
		}
		cfg := codedConfig(seed)
		total := cfg.Writers * cfg.CallsPerWriter
		if p.AfterCalls < total/4 || p.AfterCalls > 3*total/4 {
			t.Fatalf("seed %d: kill point %d outside the middle half of %d calls", seed, p.AfterCalls, total)
		}
		seen[p.FirstDomain] = true
	}
	if len(seen) < 2 {
		t.Fatal("victim domains do not vary with the seed")
	}
	if cp, dp := codedConfig(5).Plan(), domainConfig(5, 2).Plan(); cp.AfterCalls == dp.AfterCalls && cp.FirstDomain == dp.VictimDomain {
		t.Fatalf("coded plan %+v collides with domain plan %+v — streams not independent", cp, dp)
	}
}

// TestCodedDomainRejectsBadShapes: the schedule refuses configurations
// that cannot uphold its contract — a replicated config, a parity
// degree the two-domain kill would destroy, a domain count that would
// co-locate fragments, and a pool too small to repair to full degree.
func TestCodedDomainRejectsBadShapes(t *testing.T) {
	cfg := codedConfig(1)
	cfg.Replicas = 2
	if _, err := RunCodedDomain(cfg); err == nil {
		t.Fatal("RunCodedDomain accepted Replicas != 0")
	}
	cfg = codedConfig(1)
	cfg.Coding = "rs-5+1" // m=1: the second domain kill is fatal by design
	if _, err := RunCodedDomain(cfg); err == nil {
		t.Fatal("RunCodedDomain accepted m < 2")
	}
	cfg = codedConfig(1)
	cfg.Domains = 4 // < k+m: a domain would hold two fragments of one chunk
	if _, err := RunCodedDomain(cfg); err == nil {
		t.Fatal("RunCodedDomain accepted Domains < k+m")
	}
	cfg = codedConfig(1)
	cfg.Providers = 6 // two dead domains leave 4 < k+m providers
	if _, err := RunCodedDomain(cfg); err == nil {
		t.Fatal("RunCodedDomain accepted a pool too small to repair")
	}
	// The coded mode has no R; its two bad pools are one provider and
	// fewer providers than fragments.
	for _, providers := range []int{1, 5} {
		cfg = codedConfig(1)
		cfg.Providers = providers
		if _, err := RunCodedDomain(cfg); err == nil {
			t.Fatalf("RunCodedDomain accepted rs-4+2 on %d providers", providers)
		}
	}
}
