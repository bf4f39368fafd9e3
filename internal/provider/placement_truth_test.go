package provider_test

import (
	"bytes"
	"io"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// failCountingStore counts the reads its store refuses.
type failCountingStore struct {
	chunk.Store
	failed *atomic.Int64
}

func (s failCountingStore) Get(key chunk.Key, off, length int64) ([]byte, error) {
	data, err := s.Store.Get(key, off, length)
	if err != nil {
		s.failed.Add(1)
	}
	return data, err
}

func (s failCountingStore) OpenReader(key chunk.Key, off, length int64) (rc io.ReadCloser, err error) {
	if rc, err = s.Store.OpenReader(key, off, length); err != nil {
		s.failed.Add(1)
	}
	return rc, err
}

// TestReadFollowsPlacementAfterAMove: a repair that moves one copy of
// an R=2 chunk off a provider that stays up — a re-spread whose
// eviction deletes the old holder's copy — changes where the chunk
// lives, and the next reads through a blob handle follow it. Four reads
// (the replica order rotates per read, so each copy is tried first at
// least once) return the writer's bytes without a single failed store
// call and without reporting the healthy chunk as degraded: placement
// is the one answer to where a chunk lives, and nothing a writer
// recorded can send a read to the copy that moved away.
func TestReadFollowsPlacementAfterAMove(t *testing.T) {
	var failed atomic.Int64
	pool := provider.NewManager()
	for i := 0; i < 4; i++ {
		store := failCountingStore{chunk.NewMemStore(iosim.NewMeter(iosim.CostModel{}, true)), &failed}
		pool.Register(provider.NewInDomain(provider.ID(i), store, provider.DomainLabel(i, 4, 2)))
	}
	r := provider.NewRouter(pool)
	r.SetReplicas(2)
	var degraded atomic.Int64
	r.SetDegradedHandler(func(chunk.Key) { degraded.Add(1) })

	svc := blob.Services{VM: vmanager.New(iosim.CostModel{}), Meta: metadata.NewStore(2, iosim.CostModel{}), Data: r}
	b, err := blob.Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("moved"), 800)
	v, err := b.Write(0, payload, blob.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := chunk.Key{Blob: 1, Version: v, Index: 0}
	before, ok := r.Locate(key)
	if !ok || len(before) != 2 {
		t.Fatalf("placement of %s = %v", key, before)
	}

	// Retag so both copies share a domain while the other holds two
	// spare providers: repair moves one copy there and evicts the old
	// holder, which stays up.
	for _, p := range r.Providers() {
		d := "z1"
		if slices.Contains(before, p.ID()) {
			d = "z0"
		}
		if err := r.SetDomain(p.ID(), d); err != nil {
			t.Fatal(err)
		}
	}
	if outcome, copied, err := r.RepairChunk(key); outcome != provider.RepairRepaired || copied != 1 || err != nil {
		t.Fatalf("re-spread = %v, %d, %v", outcome, copied, err)
	}
	after, _ := r.Locate(key)
	moved := -1
	for _, id := range before {
		if !slices.Contains(after, id) {
			moved = int(id)
		}
	}
	if moved < 0 {
		t.Fatalf("re-spread left placement at %v", after)
	}
	if p := pool.Providers()[moved]; p.Down() {
		t.Fatalf("provider %d went down; the move must leave it up", moved)
	} else if _, err := p.Store().Len(key); err == nil {
		t.Fatalf("provider %d still holds its moved copy", moved)
	}

	failed.Store(0)
	for i := 0; i < 4; i++ {
		got, err := b.ReadAt(v, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %d after the move: %v", i, err)
		}
	}
	if n := degraded.Load(); n != 0 {
		t.Fatalf("reads of a chunk at full degree reported it degraded %d times", n)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("reads after the move made %d failed store calls", n)
	}
}
