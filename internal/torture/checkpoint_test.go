package torture

import (
	"fmt"
	"testing"
)

// ckptConfig is the standard checkpoint-blaster schedule shape: 4
// ranks checkpointing 6 epochs of a 4x4KiB strided pattern over 8
// providers, keep-newest-2 retention, restore readers, and the
// seed-scheduled store-level kill.
func ckptConfig(seed int64, replicas int) CheckpointConfig {
	return CheckpointConfig{
		Seed:     seed,
		Replicas: replicas,
	}
}

// TestCheckpointSchedule is the checkpoint-blaster torture suite:
// every checkpoint write must commit through the kill and the
// continuous reap traffic, every restore of a pinned version must
// decode to whole (rank, epoch) stamps, the victim must be detected
// and healed, and the metrics registry must stay monotone and
// self-consistent under all of it — ending with publish/repair/reap
// counters that match the work actually done.
func TestCheckpointSchedule(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			for _, seed := range seeds(t) {
				rep, err := RunCheckpoint(ckptConfig(seed, r))
				if err != nil {
					t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
				}
				if rep.FailedWrites != 0 {
					t.Fatalf("seed %d: %d checkpoint writes failed at R=%d", seed, rep.FailedWrites, r)
				}
				if !rep.Detected {
					t.Fatalf("seed %d: victim never detected: %+v", seed, rep)
				}
				if rep.Restores == 0 || rep.MetricChecks == 0 {
					t.Fatalf("seed %d: schedule lost its teeth: %+v", seed, rep)
				}
				if rep.Repaired == 0 || rep.ReapDeleted == 0 {
					t.Fatalf("seed %d: background loops left no metric tracks: %+v", seed, rep)
				}
				t.Logf("seed %d R=%d: victim %d killed after epoch %d; %d restores verified, healed in %d ticks; %d mid-churn registry snapshots consistent; publish=%g repaired=%d reaped=%d",
					seed, r, rep.Plan.Victim, rep.Plan.AfterEpoch, rep.Restores,
					rep.HealTicks, rep.MetricChecks, rep.PublishTotal, rep.Repaired, rep.ReapDeleted)
			}
		})
	}
}

// TestCheckpointPlanDeterminism: equal seeds derive equal schedules,
// schedules vary with the seed, and the checkpoint stream is
// independent of the GC stream.
func TestCheckpointPlanDeterminism(t *testing.T) {
	a := ckptConfig(5, 2).Plan()
	b := ckptConfig(5, 2).Plan()
	if a != b {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	seen := map[CheckpointPlan]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := ckptConfig(seed, 2).withDefaults()
		p := cfg.Plan()
		if p.AfterEpoch < 2 || p.AfterEpoch > cfg.Epochs {
			t.Fatalf("seed %d: kill epoch %d outside (1, %d]", seed, p.AfterEpoch, cfg.Epochs)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatal("schedules do not vary with the seed")
	}
	if cp, gp := ckptConfig(5, 2).Plan(), gcConfig(5, 2).Plan(); int(cp.Victim) == int(gp.Victim) && cp.AfterEpoch == gp.AfterCalls {
		t.Fatalf("checkpoint plan %+v collides with gc plan %+v — streams not independent", cp, gp)
	}
}

// TestCheckpointRejectsUnreplicated: the schedule kills a provider, so
// R=1 would conflate data loss with the write path; refuse it.
func TestCheckpointRejectsUnreplicated(t *testing.T) {
	if _, err := RunCheckpoint(ckptConfig(1, 1)); err == nil {
		t.Fatal("RunCheckpoint accepted R=1")
	}
	rejectsBadPools(t, func(providers, replicas int) error {
		cfg := ckptConfig(1, replicas)
		cfg.Providers = providers
		_, err := RunCheckpoint(cfg)
		return err
	})
}

// TestCheckpointStampRoundTrip: the payload byte encodes (rank, epoch)
// losslessly over the whole configured space.
func TestCheckpointStampRoundTrip(t *testing.T) {
	cfg := CheckpointConfig{}.withDefaults()
	seen := map[byte]bool{}
	for e := 1; e <= cfg.Epochs; e++ {
		for r := 0; r < cfg.Ranks; r++ {
			s := cfg.stamp(r, e)
			if s == 0 {
				t.Fatalf("stamp(%d,%d) = 0 — collides with unwritten bytes", r, e)
			}
			if seen[s] {
				t.Fatalf("stamp(%d,%d) = %d not unique", r, e, s)
			}
			seen[s] = true
			if cfg.stampRank(s) != r || cfg.stampEpoch(s) != e {
				t.Fatalf("stamp(%d,%d) decodes to (%d,%d)", r, e, cfg.stampRank(s), cfg.stampEpoch(s))
			}
		}
	}
}
