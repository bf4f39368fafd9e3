package torture

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/workload"
)

// The checkpoint schedule is bench.RunCheckpointBlaster, experiment
// E14's scenario, run on the self-healing deployment every schedule
// shares: 4 ranks checkpointing 6 epochs of a 4x4KiB strided pattern
// over 8 providers, keep-newest-2 retention reaped 8 chunks a tick,
// restore readers, and the seed-planned store-level kill.
const ckptProviders = 8

var ckptSpec = workload.CheckpointSpec{Ranks: 4, Segments: 4, SegmentSize: 4 << 10}

func ckptOptions(seed int64, replicas int) bench.CheckpointOptions {
	return bench.CheckpointOptions{Seed: seed, Replicas: replicas, Kill: true}
}

func ckptEnv(replicas int) cluster.Env {
	env := selfHealEnv(ckptProviders, replicas)
	env.Reaper.DeletesPerTick = 8
	env.Reaper.QueueDepth = 64
	return env
}

// TestCheckpointSchedule is the checkpoint-blaster torture suite:
// every checkpoint write must commit through the kill and the reap
// traffic, every restore of a pinned version must decode to whole
// (rank, epoch) stamps, the victim must be detected and healed, and
// the metrics registry must stay monotone and self-consistent under
// all of it — ending with publish/repair/reap counters that match the
// work actually done.
func TestCheckpointSchedule(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			for _, seed := range seeds(t) {
				opts := ckptOptions(seed, r)
				res, err := bench.RunCheckpointBlaster(ckptEnv(r), ckptSpec, opts)
				if err != nil {
					t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
				}
				plan := opts.Plan(ckptProviders)
				publish := res.Metrics["bs_vm_publish_total"]
				repaired := res.Metrics[`bs_repair_total{outcome="repaired"}`]
				reaped := res.Metrics["bs_reap_deleted_total"]
				if want := float64(ckptSpec.Ranks * res.Epochs); publish != want {
					t.Fatalf("seed %d: bs_vm_publish_total = %g, want %g", seed, publish, want)
				}
				if res.Restores == 0 {
					t.Fatalf("seed %d: schedule lost its teeth: %+v", seed, res)
				}
				if res.Repaired == 0 || repaired == 0 || reaped == 0 {
					t.Fatalf("seed %d: background loops left no metric tracks: repaired %d (%g in the registry), reaped %g",
						seed, res.Repaired, repaired, reaped)
				}
				t.Logf("seed %d R=%d: victim %d killed as epoch %d began; %d restores and registry snapshots verified; publish=%g repaired=%g reaped=%g",
					seed, r, plan.Victim, plan.AfterEpoch, res.Restores, publish, repaired, reaped)
			}
		})
	}
}
