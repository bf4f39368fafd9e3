package torture

import (
	"fmt"
	"testing"
)

// healConfig is the standard self-healing schedule shape: the usual
// torture workload over 8 providers, a store-level kill mid-run, and a
// 400-virtual-tick healing budget per kill.
func healConfig(seed int64, replicas int) HealConfig {
	return HealConfig{
		CrashConfig: CrashConfig{
			Config:    tortureConfig(seed),
			Replicas:  replicas,
			Providers: 8,
		},
	}
}

// TestHealSchedule is the self-healing torture suite: a provider's
// chunk store dies mid-workload and NOTHING administrative happens —
// no SetDown, no Repair call. The error-driven monitor must detect the
// loss, the scrubber and read-repair queue must restore full
// replication within the virtual-tick budget, every published snapshot
// must scrub clean, a second kill must heal the same way, and the
// first victim must rejoin service once its store recovers.
func TestHealSchedule(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			for _, seed := range seeds(t) {
				rep, err := RunHeal(healConfig(seed, r))
				if err != nil {
					t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
				}
				if rep.FailedCalls != 0 {
					t.Fatalf("seed %d: %d writes failed at R=%d", seed, rep.FailedCalls, r)
				}
				if !rep.Detected || !rep.Revived {
					t.Fatalf("seed %d: autonomy broken: %+v", seed, rep)
				}
				if rep.Scrubbed == 0 || rep.PostSecond < rep.Scrubbed {
					t.Fatalf("seed %d: scrub coverage shrank: %+v", seed, rep)
				}
				if rep.Enqueued == 0 {
					t.Fatalf("seed %d: kill after %d calls enqueued no repairs — schedule lost its teeth (victim %d)",
						seed, rep.Plan.AfterCalls, rep.Plan.Victim)
				}
				t.Logf("seed %d R=%d: healed in %d + %d ticks, %d enqueued (%d dropped by backpressure)",
					seed, r, rep.TicksFirst, rep.TicksSecond, rep.Enqueued, rep.Dropped)
			}
		})
	}
}

// TestHealPlanDeterminism: equal seeds derive equal schedules, the
// second victim always differs from the first, and schedules vary with
// the seed — the replayability contract.
func TestHealPlanDeterminism(t *testing.T) {
	a := healConfig(5, 2).Plan()
	b := healConfig(5, 2).Plan()
	if a != b {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	seen := map[HealPlan]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		p := healConfig(seed, 2).Plan()
		if p.Second == p.Victim {
			t.Fatalf("seed %d: second victim equals first: %+v", seed, p)
		}
		total := healConfig(seed, 2).Writers * healConfig(seed, 2).CallsPerWriter
		if p.AfterCalls < total/4 || p.AfterCalls > 3*total/4 {
			t.Fatalf("seed %d: kill point %d outside the middle half of %d calls", seed, p.AfterCalls, total)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatal("schedules do not vary with the seed")
	}
	// The heal stream must be independent of the crash stream: same
	// seed, different schedule families.
	if hp, cp := healConfig(5, 2).Plan(), crashConfig(5, 2).Plan(); hp.Victim == cp.Victim && hp.AfterCalls == cp.AfterCalls {
		t.Fatalf("heal plan %+v collides with crash plan %+v — streams not independent", hp, cp)
	}
}

// TestHealRejectsUnreplicated: self-healing presumes a surviving copy;
// R=1 must be refused rather than silently losing data.
func TestHealRejectsUnreplicated(t *testing.T) {
	if _, err := RunHeal(healConfig(1, 1)); err == nil {
		t.Fatal("RunHeal accepted R=1")
	}
	rejectsBadPools(t, func(providers, replicas int) error {
		cfg := healConfig(1, replicas)
		cfg.Providers = providers
		_, err := RunHeal(cfg)
		return err
	})
}
