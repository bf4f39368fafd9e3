package provider

import (
	"errors"
	"testing"

	"repro/internal/chunk"
)

func replicatedRouter(t *testing.T, n, replicas int) (*Router, []*chunk.FaultStore) {
	t.Helper()
	mgr, faults := testPool(n, 0, true)
	r := NewRouter(mgr)
	r.SetReplicas(replicas)
	return r, faults
}

func TestDeleteReplicasRemovesEveryLiveCopy(t *testing.T) {
	r, _ := replicatedRouter(t, 4, 3)
	key := chunk.Key{Blob: 1, Version: 1}
	ids, err := r.Put(key, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("stored %d copies", len(ids))
	}
	removed, bytes, err := r.DeleteReplicas(key)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 || bytes != 3*64 {
		t.Fatalf("removed %d copies / %d bytes, want 3 / 192", removed, bytes)
	}
	if _, ok := r.Locate(key); ok {
		t.Fatal("placement entry survives deletion")
	}
	for _, p := range r.Providers() {
		if _, err := p.Store().Len(key); !errors.Is(err, chunk.ErrNotFound) {
			t.Fatalf("provider %d still holds the chunk: %v", p.ID(), err)
		}
	}
	// Deleting an unknown / already-deleted chunk is a no-op.
	if n, b, err := r.DeleteReplicas(key); err != nil || n != 0 || b != 0 {
		t.Fatalf("re-delete = %d, %d, %v", n, b, err)
	}
}

func TestDeleteReplicasSkipsDownAndRetriesErrors(t *testing.T) {
	r, faults := replicatedRouter(t, 4, 3)
	key := chunk.Key{Blob: 1, Version: 2}
	ids, err := r.Put(key, make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	// One replica's machine is flagged down: its copy is orphaned, not
	// an error. Another replica's store errors while flag-live: that
	// one must stay recorded for retry.
	downID, errID := ids[0], ids[1]
	if err := r.SetDown(downID, true); err != nil {
		t.Fatal(err)
	}
	faults[errID].SetDown(true) // store-level failure, flag still live

	removed, _, err := r.DeleteReplicas(key)
	if err == nil {
		t.Fatal("delete with an erroring replica must report it")
	}
	if removed != 1 {
		t.Fatalf("removed %d copies, want 1 (the healthy one)", removed)
	}
	left, ok := r.Locate(key)
	if !ok || len(left) != 1 || left[0] != errID {
		t.Fatalf("placement after partial delete = %v (ok=%v), want [%d]", left, ok, errID)
	}
	// The store recovers; the retry completes and retires placement.
	faults[errID].SetDown(false)
	removed, _, err = r.DeleteReplicas(key)
	if err != nil || removed != 1 {
		t.Fatalf("retry = %d, %v", removed, err)
	}
	if _, ok := r.Locate(key); ok {
		t.Fatal("placement survives completed retry")
	}
}

func TestDeleteReplicasBusyWithRepair(t *testing.T) {
	r, _ := replicatedRouter(t, 4, 2)
	key := chunk.Key{Blob: 1, Version: 3}
	if _, err := r.Put(key, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	// Simulate an in-flight repair holding the claim.
	if !r.claimKey(key) {
		t.Fatal("claim failed")
	}
	if _, _, err := r.DeleteReplicas(key); !errors.Is(err, ErrChunkBusy) {
		t.Fatalf("delete under repair = %v, want ErrChunkBusy", err)
	}
	// And the mirror image: a repair of a chunk being deleted backs
	// off as healthy instead of resurrecting it.
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("repair under delete = %v, %d, %v", outcome, copied, err)
	}
	r.releaseKey(key)
	if _, _, err := r.DeleteReplicas(key); err != nil {
		t.Fatalf("delete after release: %v", err)
	}
}

func TestRepairDoesNotResurrectDeletedChunk(t *testing.T) {
	r, _ := replicatedRouter(t, 4, 2)
	key := chunk.Key{Blob: 1, Version: 4}
	if _, err := r.Put(key, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.DeleteReplicas(key); err != nil {
		t.Fatal(err)
	}
	// The healer may still hold the key in its queue from before the
	// drop; repairing it now must be a no-op.
	outcome, copied, err := r.RepairChunk(key)
	if outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("repair of deleted chunk = %v, %d, %v", outcome, copied, err)
	}
	if _, ok := r.Locate(key); ok {
		t.Fatal("repair resurrected a deleted chunk")
	}
}

func TestRouterUsage(t *testing.T) {
	r, _ := replicatedRouter(t, 3, 2)
	if _, err := r.Put(chunk.Key{Blob: 1, Version: 1}, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Put(chunk.Key{Blob: 1, Version: 2}, make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	us := r.Usage()
	if len(us) != 3 {
		t.Fatalf("usage rows = %d", len(us))
	}
	var chunks int
	var bytes int64
	for _, u := range us {
		chunks += u.Chunks
		bytes += u.Bytes
		if u.Provider == 2 && !u.Down {
			t.Fatal("down flag not reported")
		}
	}
	// 2 chunks x 2 replicas each, 220 bytes total across the pool.
	if chunks != 4 || bytes != 220 {
		t.Fatalf("pool usage = %d chunks / %d bytes, want 4 / 220", chunks, bytes)
	}
}
