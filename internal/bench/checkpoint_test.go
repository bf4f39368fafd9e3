package bench

import (
	"bytes"
	"slices"
	"strings"
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
	// From the second epoch on, each of 2 readers restores at least
	// the 2 versions retention keeps.
	if least := 2 * 2 * restoresPerVersion * (5 - 1); res.Restores < least || res.Restores%(2*restoresPerVersion) != 0 {
		t.Errorf("restores = %d, want a multiple of %d, at least %d", res.Restores, 2*restoresPerVersion, least)
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
	for _, name := range []string{"chunk put", "chunk get", "repair", "reap pass"} {
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

// Restores run inside each epoch and are joined before its heal and
// reap tick, so the written bytes, the restores, the versions reclaimed
// and the control-path, put and reap stage counts repeat run to run.
// Two counts follow the order the ranks' writes arrive in and are left
// out: chunk gets (what an intermediate version holds, and what the
// read cache has of it, follow publish order) and repairs (which chunks
// tried the dead store before the errors marked it down).
func TestCheckpointBlasterCountsRepeat(t *testing.T) {
	spec := workload.CheckpointSpec{Ranks: 4, Segments: 4, SegmentSize: 8 << 10}
	counts := func(res CheckpointResult) []uint64 {
		c := []uint64{uint64(res.WrittenBytes), uint64(res.Restores), uint64(res.Reclaimed)}
		for _, s := range res.Stages {
			if s.Stage != "chunk get" && s.Stage != "repair" {
				c = append(c, s.Count)
			}
		}
		return c
	}
	var first []uint64
	for run := 0; run < 4; run++ {
		res, err := RunCheckpointBlaster(cluster.Default(), spec, CheckpointOptions{
			Replicas: 2, Epochs: 5, KeepLast: 2, Readers: 2, Kill: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		got := counts(res)
		if run == 0 {
			first = got
			continue
		}
		if !slices.Equal(got, first) {
			t.Fatalf("run %d: written, restores, reclaimed and stage counts %v; run 0: %v", run, got, first)
		}
	}
}

// TestCheckpointRestoreCheck: a restored region passes only if it is
// one stamp of the right rank, or not written yet at all.
func TestCheckpointRestoreCheck(t *testing.T) {
	spec := workload.CheckpointSpec{Ranks: 4, Segments: 3, SegmentSize: 16}
	const epochs, rank = 6, 2
	region := func(stamps ...byte) []byte {
		var b []byte
		for _, s := range stamps {
			b = append(b, bytes.Repeat([]byte{s}, int(spec.SegmentSize))...)
		}
		return b
	}
	s3, s4 := stamp(spec.Ranks, rank, 3), stamp(spec.Ranks, rank, 4)
	torn := region(s3, s3, s3)
	torn[len(torn)-1] = s4
	for _, tc := range []struct {
		name   string
		region []byte
		want   string // "" passes
	}{
		{"whole", region(s3, s3, s3), ""},
		{"unwritten", region(0, 0, 0), ""},
		{"two epochs", region(s3, s4, s3), "torn checkpoint"},
		{"another rank", region(s3, stamp(spec.Ranks, rank+1, 3), s3), "stamped by rank 3"},
		{"written after unwritten", region(0, s3, s3), "written after unwritten"},
		{"unwritten after written", region(s3, 0, 0), "unwritten after written"},
		{"torn segment", torn, "mixed bytes"},
		{"epoch out of range", region(stamp(spec.Ranks, rank, epochs+1), stamp(spec.Ranks, rank, epochs+1), stamp(spec.Ranks, rank, epochs+1)), "out of range"},
	} {
		err := checkRestore(spec, epochs, rank, tc.region)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointStampRoundTrip: the payload byte encodes (rank, epoch)
// losslessly over the whole default space.
func TestCheckpointStampRoundTrip(t *testing.T) {
	const ranks, epochs = 4, 6
	seen := map[byte]bool{}
	for e := 1; e <= epochs; e++ {
		for r := 0; r < ranks; r++ {
			s := stamp(ranks, r, e)
			if s == 0 {
				t.Fatalf("stamp(%d,%d) = 0 — collides with unwritten bytes", r, e)
			}
			if seen[s] {
				t.Fatalf("stamp(%d,%d) = %d not unique", r, e, s)
			}
			seen[s] = true
			if gr, ge := unstamp(ranks, s); gr != r || ge != e {
				t.Fatalf("stamp(%d,%d) decodes to (%d,%d)", r, e, gr, ge)
			}
		}
	}
}

// TestCheckpointPlanDeterminism: equal seeds derive equal kills, kills
// vary with the seed, and the kill epoch leaves an epoch on each side.
func TestCheckpointPlanDeterminism(t *testing.T) {
	a := CheckpointOptions{Seed: 5}.Plan(8)
	b := CheckpointOptions{Seed: 5}.Plan(8)
	if a != b {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	seen := map[CheckpointPlan]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		opts := CheckpointOptions{Seed: seed}.withDefaults()
		p := opts.Plan(8)
		if p.AfterEpoch < 2 || p.AfterEpoch > opts.Epochs {
			t.Fatalf("seed %d: kill epoch %d outside (1, %d]", seed, p.AfterEpoch, opts.Epochs)
		}
		if p.Victim < 0 || p.Victim >= 8 {
			t.Fatalf("seed %d: victim %d outside the pool", seed, p.Victim)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatal("kills do not vary with the seed")
	}
}

// TestCheckpointRejectsUnreplicated: a kill at R=1 would conflate data
// loss with the write path, and a pool the deployment cannot be built
// on has no provider to plan a kill on; both are refused with an error,
// as are more rank-epochs than stamp bytes and more readers than ranks.
func TestCheckpointRejectsUnreplicated(t *testing.T) {
	spec := workload.CheckpointSpec{Ranks: 4, Segments: 4, SegmentSize: 4 << 10}
	if _, err := RunCheckpointBlaster(cluster.Default(), spec, CheckpointOptions{Replicas: 1, Kill: true}); err == nil {
		t.Fatal("RunCheckpointBlaster accepted a kill at R=1")
	}
	for _, shape := range []struct{ providers, replicas int }{
		{1, 2}, // one provider
		{2, 3}, // replicas exceed providers
	} {
		env := cluster.Default()
		env.Providers = shape.providers
		if _, err := RunCheckpointBlaster(env, spec, CheckpointOptions{Replicas: shape.replicas, Kill: true}); err == nil {
			t.Fatalf("accepted %d replicas on %d providers", shape.replicas, shape.providers)
		}
	}
	if _, err := RunCheckpointBlaster(cluster.Default(), spec, CheckpointOptions{Epochs: 64}); err == nil {
		t.Fatal("accepted 4 ranks x 64 epochs, past the 255 stamp bytes")
	}
	if _, err := RunCheckpointBlaster(cluster.Default(), spec, CheckpointOptions{Readers: 5}); err == nil {
		t.Fatal("accepted 5 restore readers for 4 ranks")
	}
}
