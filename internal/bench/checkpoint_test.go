package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// The blaster must survive a mid-run provider kill with zero failed
// writes or reads, converge heal and GC, and hand back per-stage
// histograms whose counts are self-consistent with the work done.
func TestCheckpointBlaster(t *testing.T) {
	spec := workload.CheckpointSpec{Ranks: 4, Segments: 4, SegmentSize: 8 << 10}
	res, err := RunCheckpointBlaster(cluster.Default(), spec, CheckpointOptions{
		Replicas: 2, Epochs: 5, KeepLast: 2, Readers: 2, Kill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WrittenBytes != spec.BytesPerRank()*int64(spec.Ranks)*5 {
		t.Errorf("written = %d", res.WrittenBytes)
	}
	if res.Repaired == 0 {
		t.Error("kill produced no repairs")
	}
	if res.Reclaimed == 0 {
		t.Error("retention produced no reclaimed versions")
	}
	stages := map[string]StageLatency{}
	for _, s := range res.Stages {
		stages[s.Stage] = s
	}
	// One ticket/commit/publish per epoch per rank.
	want := uint64(5 * spec.Ranks)
	for _, name := range []string{"ticket", "commit", "publish", "pipe write"} {
		if got := stages[name].Count; got != want {
			t.Errorf("stage %q count = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"chunk put", "repair", "reap pass"} {
		if stages[name].Count == 0 {
			t.Errorf("stage %q count = 0", name)
		}
	}
	// The flattened snapshot agrees with the stage readout.
	if got := res.Metrics["bs_vm_publish_total"]; got != float64(want) {
		t.Errorf("bs_vm_publish_total = %g, want %d", got, want)
	}
	if res.Metrics["bs_repair_seconds_count"] != float64(stages["repair"].Count) {
		t.Errorf("repair histogram disagrees between snapshot and handle")
	}
}

// The healer and reaper advance from the epoch loop, not a wall-clock
// ticker, so chunks repaired and versions reclaimed repeat run to run
// while the restore count is free to differ.
func TestCheckpointBlasterCountsRepeat(t *testing.T) {
	spec := workload.CheckpointSpec{Ranks: 4, Segments: 4, SegmentSize: 8 << 10}
	var first CheckpointResult
	for run := 0; run < 4; run++ {
		res, err := RunCheckpointBlaster(cluster.Default(), spec, CheckpointOptions{
			Replicas: 2, Epochs: 5, KeepLast: 2, Readers: 2, Kill: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res
			continue
		}
		if res.Repaired != first.Repaired || res.Reclaimed != first.Reclaimed {
			t.Fatalf("run %d: repaired %d, reclaimed %d; run 0: repaired %d, reclaimed %d",
				run, res.Repaired, res.Reclaimed, first.Repaired, first.Reclaimed)
		}
	}
}
