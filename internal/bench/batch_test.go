package bench

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// The small-write scenario must run and account correctly on the free
// model for every batch size.
func TestRunSmallWrites(t *testing.T) {
	spec := workload.OverlapSpec{Clients: 4, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.75}
	for _, mb := range []int{1, 8, 64} {
		opts := SmallWriteOptions{
			Iterations: 3,
			Batch:      vmanager.BatchConfig{MaxBatch: mb, MaxDelay: 100 * time.Microsecond},
			PipeDepth:  4,
		}
		res, err := RunSmallWrites(cluster.Default(), spec, opts)
		if err != nil {
			t.Fatalf("maxbatch=%d: %v", mb, err)
		}
		if res.Calls != 12 {
			t.Fatalf("maxbatch=%d: calls = %d, want 12", mb, res.Calls)
		}
		if want := int64(12) * spec.BytesPerClient(); res.Bytes != want {
			t.Fatalf("maxbatch=%d: bytes = %d, want %d", mb, res.Bytes, want)
		}
		if res.MBps <= 0 {
			t.Fatalf("maxbatch=%d: non-positive throughput", mb)
		}
	}
}

// On the metered cost model, group commit must charge the control
// server less than one round trip per call — the PR's acceptance
// criterion, asserted in the simulation's own currency (metered busy
// time) rather than wall-clock MB/s, which on a small host follows the
// clients' CPU and not the control plane.
func TestSmallWritesBatchedBeatsUnbatchedMetered(t *testing.T) {
	spec := workload.OverlapSpec{Clients: 16, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.75}
	run := func(mb int) time.Duration {
		res, err := RunSmallWrites(cluster.Metered(), spec, SmallWriteOptions{
			Iterations: 6,
			Batch:      vmanager.BatchConfig{MaxBatch: mb, MaxDelay: 200 * time.Microsecond},
			PipeDepth:  4,
		})
		if err != nil {
			t.Fatalf("maxbatch=%d: %v", mb, err)
		}
		return res.CtrlBusy
	}
	unbatched := run(1)
	batched := run(64)
	t.Logf("metered control time: unbatched %v, batched %v (%.2fx)", unbatched, batched, float64(unbatched)/float64(batched))
	if batched >= unbatched {
		t.Fatalf("batched control time %v not below unbatched %v", batched, unbatched)
	}
}

// With every client on blobs of its own, sharding the control plane
// must take load off its busiest server: the same calls, metered,
// cost the busiest of 4 shards less than they cost the single manager
// (E16's claim, in the simulation's own currency).
func TestSmallWritesShardedSpreadsControlLoad(t *testing.T) {
	spec := workload.OverlapSpec{Clients: 8, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.75}
	run := func(shards int) Result {
		res, err := RunSmallWrites(cluster.Metered(), spec, SmallWriteOptions{
			Iterations: 4, PipeDepth: 4, Shards: shards, BlobsPerClient: 4,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Calls != 32 || res.Bytes != 32*spec.BytesPerClient() {
			t.Fatalf("shards=%d: %d calls, %d bytes", shards, res.Calls, res.Bytes)
		}
		return res
	}
	one, four := run(1), run(4)
	if four.CtrlBusy >= one.CtrlBusy {
		t.Fatalf("busiest of 4 shards metered %v, the single manager %v", four.CtrlBusy, one.CtrlBusy)
	}
}
