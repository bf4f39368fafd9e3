package torture

import (
	"fmt"
	"testing"
)

// domainConfig is the standard correlated-loss schedule shape: the
// usual torture workload over 8 providers in 4 failure domains, one
// whole domain store-killed mid-run, 400 virtual ticks to heal.
func domainConfig(seed int64, replicas int) DomainConfig {
	return DomainConfig{
		CrashConfig: CrashConfig{
			Config:    tortureConfig(seed),
			Replicas:  replicas,
			Providers: 8,
		},
		Domains: 4,
	}
}

// TestDomainKillSchedule is the correlated-loss torture suite: every
// provider of one failure domain dies at once (store level, no
// operator action) and domain-spread placement plus self-healing must
// carry every published byte through it — zero failed writes,
// serializable outcome, every victim detected, every chunk
// re-replicated into surviving domains with the distinct-domain spread
// restored, every snapshot scrubbing clean.
func TestDomainKillSchedule(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			for _, seed := range seeds(t) {
				rep, err := RunDomain(domainConfig(seed, r))
				if err != nil {
					t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
				}
				if rep.FailedCalls != 0 {
					t.Fatalf("seed %d: %d writes failed at R=%d", seed, rep.FailedCalls, r)
				}
				if rep.Detected != len(rep.Plan.Victims) {
					t.Fatalf("seed %d: %d of %d victims detected", seed, rep.Detected, len(rep.Plan.Victims))
				}
				if rep.Scrubbed == 0 {
					t.Fatalf("seed %d: nothing scrubbed after heal: %+v", seed, rep)
				}
				if rep.Enqueued == 0 {
					t.Fatalf("seed %d: domain kill after %d calls enqueued no repairs — schedule lost its teeth (domain %d = %v)",
						seed, rep.Plan.AfterCalls, rep.Plan.VictimDomain, rep.Plan.Victims)
				}
				t.Logf("seed %d R=%d: domain %d (%d providers) healed in %d ticks, %d enqueued (%d spread violations, %d dropped)",
					seed, r, rep.Plan.VictimDomain, len(rep.Plan.Victims), rep.Ticks, rep.Enqueued, rep.SpreadFound, rep.Dropped)
			}
		})
	}
}

// TestDomainFlatControl witnesses the exposure the schedule exists to
// prevent: the SAME seed, workload and whole-domain kill on the flat
// pre-spread deployment loses published chunks — replication alone is
// no defense against machines that fail together.
func TestDomainFlatControl(t *testing.T) {
	for _, seed := range seeds(t) {
		rep, err := RunDomainFlat(domainConfig(seed, 2))
		if err != nil {
			t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
		}
		if rep.LostChunks == 0 || !rep.LossSeen {
			t.Fatalf("seed %d: control run lost nothing: %+v", seed, rep)
		}
		t.Logf("seed %d: flat placement lost %d chunks to the domain kill the spread run survived", seed, rep.LostChunks)
	}
}

// TestDomainPlanDeterminism: equal seeds derive equal schedules,
// victims exactly cover one contiguous domain block, schedules vary
// with the seed, and the stream is independent of the crash/heal
// families — the replayability contract.
func TestDomainPlanDeterminism(t *testing.T) {
	a := domainConfig(5, 2).Plan()
	b := domainConfig(5, 2).Plan()
	if a.VictimDomain != b.VictimDomain || a.AfterCalls != b.AfterCalls || len(a.Victims) != len(b.Victims) {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		p := domainConfig(seed, 2).Plan()
		if len(p.Victims) != 2 {
			t.Fatalf("seed %d: domain block %v, want 2 providers (8 providers / 4 domains)", seed, p.Victims)
		}
		if got, want := p.Victims[1], p.Victims[0]+1; got != want {
			t.Fatalf("seed %d: victims %v not a contiguous block", seed, p.Victims)
		}
		total := domainConfig(seed, 2).Writers * domainConfig(seed, 2).CallsPerWriter
		if p.AfterCalls < total/4 || p.AfterCalls > 3*total/4 {
			t.Fatalf("seed %d: kill point %d outside the middle half of %d calls", seed, p.AfterCalls, total)
		}
		seen[p.VictimDomain] = true
	}
	if len(seen) < 2 {
		t.Fatal("victim domains do not vary with the seed")
	}
	if dp, hp := domainConfig(5, 2).Plan(), healConfig(5, 2).Plan(); dp.AfterCalls == hp.AfterCalls {
		t.Fatalf("domain plan %+v collides with heal plan %+v — streams not independent", dp, hp)
	}
}

// TestDomainRejectsBadShapes: the schedule refuses configurations that
// cannot uphold its contract — unreplicated data (R=1) and a domain
// count the spread invariant cannot survive a loss under.
func TestDomainRejectsBadShapes(t *testing.T) {
	if _, err := RunDomain(domainConfig(1, 1)); err == nil {
		t.Fatal("RunDomain accepted R=1")
	}
	cfg := domainConfig(1, 2)
	cfg.Domains = 2 // losing 1 of 2 domains leaves 1 < R
	if _, err := RunDomain(cfg); err == nil {
		t.Fatal("RunDomain accepted Domains <= Replicas")
	}
	for name, run := range map[string]func(DomainConfig) error{
		"RunDomain":     func(c DomainConfig) error { _, err := RunDomain(c); return err },
		"RunDomainFlat": func(c DomainConfig) error { _, err := RunDomainFlat(c); return err },
	} {
		t.Run(name, func(t *testing.T) {
			rejectsBadPools(t, func(providers, replicas int) error {
				cfg := domainConfig(1, replicas)
				cfg.Providers = providers
				return run(cfg)
			})
		})
	}
}
