package vmanager

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/iosim"
	"repro/internal/segtree"
)

// TestShardIndexStable pins the routing contract clients and servers
// both rely on: the blob→shard mapping is a pure function of (blob, n)
// — stable across router re-instantiation, always in range, and
// degenerate n collapses to shard 0.
func TestShardIndexStable(t *testing.T) {
	f := func(blob uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		want := ShardIndex(blob, n)
		if want < 0 || want >= n {
			return false
		}
		a := NewSharded(iosim.CostModel{}, n)
		b := NewSharded(iosim.CostModel{}, n)
		return a.route(blob) == a.shards[want] && b.route(blob) == b.shards[want]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-3, 0, 1} {
		if got := ShardIndex(42, n); got != 0 {
			t.Fatalf("ShardIndex(42, %d) = %d, want 0", n, got)
		}
	}
}

// TestShardIndexAllReachable: for every shard count up to 64, a modest
// deterministic ID population must reach every shard — an unreachable
// shard would silently idle while its peers absorb its load.
func TestShardIndexAllReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := make([]uint64, 4096)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	for n := 1; n <= 64; n++ {
		hit := make([]bool, n)
		for _, id := range ids {
			hit[ShardIndex(id, n)] = true
		}
		for s, ok := range hit {
			if !ok {
				t.Fatalf("n=%d: shard %d unreachable over %d random IDs", n, s, len(ids))
			}
		}
		// Small sequential IDs — the ones deployments actually mint —
		// must spread too, or the hash finalizer is broken.
		hit = make([]bool, n)
		for id := uint64(1); id <= 4096; id++ {
			hit[ShardIndex(id, n)] = true
		}
		for s, ok := range hit {
			if !ok {
				t.Fatalf("n=%d: shard %d unreachable over sequential IDs 1..4096", n, s)
			}
		}
	}
}

// TestShardedBlobsPartition: every created blob lands on exactly the
// shard ShardIndex names, and on no other.
func TestShardedBlobsPartition(t *testing.T) {
	s := NewSharded(iosim.CostModel{}, 8)
	geo := segtree.Geometry{Capacity: 1024, Page: 64}
	for b := uint64(1); b <= 32; b++ {
		if err := s.CreateBlob(b, geo); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]int)
	for i := 0; i < s.NumShards(); i++ {
		for _, b := range s.Shard(i).Blobs() {
			if prev, dup := seen[b]; dup {
				t.Fatalf("blob %d on shards %d and %d", b, prev, i)
			}
			seen[b] = i
			if want := ShardIndex(b, 8); i != want {
				t.Fatalf("blob %d on shard %d, ShardIndex says %d", b, i, want)
			}
		}
	}
	if len(seen) != 32 {
		t.Fatalf("%d blobs across shards, want 32", len(seen))
	}
}
