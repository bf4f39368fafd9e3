package torture

import (
	"fmt"
	"testing"
)

// TestStreamTornUploads is the torn-upload half of the streaming
// schedule: at R=1, seed-planned mid-stream tears must fail the killed
// writes cleanly — no partial chunk at any store, every version that
// did publish intact byte-for-byte.
func TestStreamTornUploads(t *testing.T) {
	for _, seed := range seeds(t) {
		rep, err := RunStream(StreamConfig{Seed: seed, Replicas: 1})
		if err != nil {
			t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
		}
		if rep.Torn == 0 {
			t.Fatalf("seed %d: no stream torn", seed)
		}
		if rep.Verified != rep.Published {
			t.Fatalf("seed %d: %d of %d published versions verified", seed, rep.Verified, rep.Published)
		}
		if rep.Published+rep.Torn != 4*6 {
			t.Fatalf("seed %d: %d published + %d torn != 24 writes", seed, rep.Published, rep.Torn)
		}
	}
}

// TestStreamDegradedReads is the failover half: at R=2 the victim dies
// mid-workload holding live chunks, yet every write commits and every
// published version reconstructs from the surviving replicas while the
// victim is still down.
func TestStreamDegradedReads(t *testing.T) {
	for _, seed := range seeds(t) {
		rep, err := RunStream(StreamConfig{Seed: seed, Replicas: 2})
		if err != nil {
			t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
		}
		if rep.Torn != 0 {
			t.Fatalf("seed %d: %d writes failed at R=2", seed, rep.Torn)
		}
		if rep.Published != 4*6 || rep.Verified != rep.Published {
			t.Fatalf("seed %d: published %d, verified %d", seed, rep.Published, rep.Verified)
		}
		if rep.VictimChunks == 0 {
			t.Fatalf("seed %d: victim held no chunks", seed)
		}
	}
}

// TestStreamDiskBackend runs the torn-upload schedule with real files
// behind the providers: the temp+rename protocol, not a memory map, is
// what must keep the torn chunk invisible.
func TestStreamDiskBackend(t *testing.T) {
	rep, err := RunStream(StreamConfig{
		Seed:     1,
		Replicas: 1,
		StoreURL: fmt.Sprintf("disk://%s", t.TempDir()),
	})
	if err != nil {
		t.Fatalf("replay with REPRO_TORTURE_SEED=1: %v", err)
	}
	if rep.Torn == 0 || rep.Verified != rep.Published {
		t.Fatalf("disk run: %+v", rep)
	}
}

// TestStreamPlanDeterminism: equal seeds must derive equal schedules,
// the first kill must land in the middle half, every tear must fall
// strictly inside a chunk, and schedules must vary with the seed.
func TestStreamPlanDeterminism(t *testing.T) {
	cfg := StreamConfig{Seed: 5}.withDefaults()
	a, b := cfg.Plan(), cfg.Plan()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed planned %+v vs %+v", a, b)
	}
	total := cfg.Writers * cfg.ObjectsPerWriter
	if a.AfterObjects < total/4 || a.AfterObjects > total/2 {
		t.Fatalf("kill point %d outside the middle half of %d writes", a.AfterObjects, total)
	}
	for _, n := range a.Torn {
		if n < 1 || n >= cfg.ChunkSize {
			t.Fatalf("tear at byte %d could land on a chunk boundary (chunk size %d)", n, cfg.ChunkSize)
		}
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		seen[fmt.Sprint(StreamConfig{Seed: seed}.Plan())] = true
	}
	if len(seen) < 2 {
		t.Fatal("schedules do not vary with the seed")
	}
}

// TestStreamRejectsBadShapes: a chunk too small to tear inside and a
// pool the deployment cannot be built on are refused, not panicked on.
func TestStreamRejectsBadShapes(t *testing.T) {
	if _, err := RunStream(StreamConfig{Seed: 1, ChunkSize: 1}); err == nil {
		t.Fatal("RunStream accepted a one-byte chunk")
	}
	rejectsBadPools(t, func(providers, replicas int) error {
		_, err := RunStream(StreamConfig{Seed: 1, Providers: providers, Replicas: replicas})
		return err
	})
}
