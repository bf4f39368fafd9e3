package torture

import (
	"testing"

	"repro/internal/vmanager"
)

// TestShardKillSchedule is the control-plane atomicity suite: a
// seed-scheduled version-manager shard dies mid-batch while writers
// hammer blobs across all shards. RunShard asserts the contract
// (survivors unaffected, ErrShardDown means not committed, the
// interrupted batch aborts whole, no cross-shard leakage); the test
// additionally pins the teeth recorded in the report so a schedule
// that degenerates — never killing mid-batch, never failing a write —
// cannot pass silently.
func TestShardKillSchedule(t *testing.T) {
	for _, seed := range seeds(t) {
		checkShardKill(t, ShardConfig{Seed: seed})
	}
}

// TestShardKillScheduleUnbatched runs the same schedule at MaxBatch 1,
// the default configuration: every Complete and Abort is a group of one
// through the commit core, so the kill lands on a lone completion, and
// the contract must hold there too.
func TestShardKillScheduleUnbatched(t *testing.T) {
	for _, seed := range seeds(t) {
		rep := checkShardKill(t, ShardConfig{Seed: seed, Batch: vmanager.BatchConfig{MaxBatch: 1}})
		if rep.DoomedBatch != 1 || rep.AppliedAtKill != 1 {
			t.Fatalf("seed %d: unbatched kill interrupted %d of a %d-request group, want 1 of 1: %+v",
				seed, rep.AppliedAtKill, rep.DoomedBatch, rep)
		}
	}
}

// checkShardKill runs one shard-kill schedule and pins its teeth.
func checkShardKill(t *testing.T, cfg ShardConfig) ShardReport {
	t.Helper()
	seed := cfg.Seed
	rep, err := RunShard(cfg)
	if err != nil {
		t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
	}
	if rep.AppliedAtKill < 1 {
		t.Fatalf("seed %d: kill fired with no batch in flight: %+v", seed, rep)
	}
	if rep.DoomedBatch < rep.AppliedAtKill {
		t.Fatalf("seed %d: report inconsistent, %d applied of a %d-request batch", seed, rep.AppliedAtKill, rep.DoomedBatch)
	}
	if rep.AbortsOnRestart < 1 {
		t.Fatalf("seed %d: restart witnessed no aborts: %+v", seed, rep)
	}
	if rep.FailedCalls < 1 {
		t.Fatalf("seed %d: shard death cost no writes — schedule lost its teeth: %+v", seed, rep)
	}
	if rep.OKCalls < 1 {
		t.Fatalf("seed %d: nothing committed: %+v", seed, rep)
	}
	return rep
}

// TestShardPlanDeterminism: equal seeds must derive equal kill
// schedules, the doomed shard must carry traffic, and the threshold
// must be reachable.
func TestShardPlanDeterminism(t *testing.T) {
	cfg := ShardConfig{Seed: 7}
	a, b := cfg.Plan(), cfg.Plan()
	if a != b {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	cfg.applyDefaults()
	if a.Doomed < 0 || a.Doomed >= cfg.Shards {
		t.Fatalf("doomed shard %d out of range [0, %d)", a.Doomed, cfg.Shards)
	}
	owned := 0
	for bl := 1; bl <= cfg.Blobs; bl++ {
		if vmanager.ShardIndex(uint64(bl), cfg.Shards) == a.Doomed {
			owned++
		}
	}
	if owned == 0 {
		t.Fatalf("doomed shard %d owns no blobs; the kill could never fire", a.Doomed)
	}
	if a.KillAfter < 1 || a.KillAfter > cfg.CallsPerBlob*owned {
		t.Fatalf("kill-after %d unreachable for %d doomed publishes", a.KillAfter, cfg.CallsPerBlob*owned)
	}
}
