package torture

import (
	"fmt"
	"testing"
)

// gcConfig is the standard version-lifecycle schedule shape: the usual
// torture workload over 8 providers, keep-newest-3 retention running
// continuously, and a store-level kill mid-run.
func gcConfig(seed int64, replicas int) GCConfig {
	return GCConfig{
		CrashConfig: CrashConfig{
			Config:    tortureConfig(seed),
			Replicas:  replicas,
			Providers: 8,
		},
		KeepLast: 3,
	}
}

// TestGCSchedule is the version-lifecycle torture suite: concurrent
// writers, a reader pinned to an early version, one provider store
// killed mid-run with self-heal enabled, and the retention policy plus
// reaper running continuously. Every retained version must scrub
// clean, the pinned reader must never observe corruption or a missing
// chunk, and once the pin is released the version's exclusive chunks
// must be removed from every live replica while shared chunks survive.
func TestGCSchedule(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			for _, seed := range seeds(t) {
				rep, err := RunGC(gcConfig(seed, r))
				if err != nil {
					t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
				}
				if rep.FailedCalls != 0 {
					t.Fatalf("seed %d: %d writes failed at R=%d", seed, rep.FailedCalls, r)
				}
				if !rep.Detected {
					t.Fatalf("seed %d: victim never detected: %+v", seed, rep)
				}
				if rep.PinnedReads == 0 || rep.Scrubbed == 0 {
					t.Fatalf("seed %d: schedule lost its teeth: %+v", seed, rep)
				}
				if rep.Reclaimed == 0 || rep.DeletedBytes == 0 {
					t.Fatalf("seed %d: nothing reclaimed: %+v", seed, rep)
				}
				t.Logf("seed %d R=%d: pinned v%d read %d times under fire; healed in %d ticks; dropped %d versions, reclaimed %d (%d bytes, %d exclusive chunks of the pinned version verified gone)",
					seed, r, rep.PinnedVersion, rep.PinnedReads, rep.HealTicks,
					rep.DroppedTotal, rep.Reclaimed, rep.DeletedBytes, rep.Exclusive)
			}
		})
	}
}

// TestGCPlanDeterminism: equal seeds derive equal schedules, schedules
// vary with the seed, and the GC stream is independent of the crash
// and heal streams.
func TestGCPlanDeterminism(t *testing.T) {
	a := gcConfig(5, 2).Plan()
	b := gcConfig(5, 2).Plan()
	if a != b {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	seen := map[GCPlan]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		p := gcConfig(seed, 2).Plan()
		total := gcConfig(seed, 2).Writers * gcConfig(seed, 2).CallsPerWriter
		if p.AfterCalls < total/4 || p.AfterCalls > 3*total/4 {
			t.Fatalf("seed %d: kill point %d outside the middle half of %d calls", seed, p.AfterCalls, total)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatal("schedules do not vary with the seed")
	}
	if gp, hp := gcConfig(5, 2).Plan(), healConfig(5, 2).Plan(); gp.Victim == hp.Victim && gp.AfterCalls == hp.AfterCalls {
		t.Fatalf("gc plan %+v collides with heal plan %+v — streams not independent", gp, hp)
	}
	if gp, cp := gcConfig(5, 2).Plan(), ckptOptions(5, 2).Plan(ckptProviders); gp.Victim == cp.Victim && gp.AfterCalls == cp.AfterEpoch {
		t.Fatalf("gc plan %+v collides with checkpoint plan %+v — streams not independent", gp, cp)
	}
}

// TestGCRejectsUnreplicated: the schedule kills a provider, so R=1
// would conflate data loss with reclamation; refuse it.
func TestGCRejectsUnreplicated(t *testing.T) {
	if _, err := RunGC(gcConfig(1, 1)); err == nil {
		t.Fatal("RunGC accepted R=1")
	}
	rejectsBadPools(t, func(providers, replicas int) error {
		cfg := gcConfig(1, replicas)
		cfg.Providers = providers
		_, err := RunGC(cfg)
		return err
	})
}
