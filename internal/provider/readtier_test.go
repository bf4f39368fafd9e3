package provider

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"repro/internal/chunk"
)

// cachedRouter is a domain router with the read cache wired.
func cachedRouter(t *testing.T, n, domains, replicas int) (*Router, *ReadCache) {
	t.Helper()
	mgr, _ := testPool(n, domains, false)
	r := NewRouter(mgr)
	r.SetReplicas(replicas)
	cache := NewReadCache(ReadCacheConfig{MaxBytes: 1 << 20})
	r.SetReadCache(cache)
	return r, cache
}

// TestZoneLocalReplicaOrder: with a local domain set, every rotation of
// the replica set tries same-domain replicas first, and the remote
// replicas stay in the order as failover targets — the set is
// reordered, never narrowed.
func TestZoneLocalReplicaOrder(t *testing.T) {
	// 6 providers, 3 domains: zone0={0,1}, zone1={2,3}, zone2={4,5}.
	mgr, _ := testPool(6, 3, false)
	r := NewRouter(mgr)
	r.SetReadLocality("zone1", true)
	if got := r.LocalDomain(); got != "zone1" {
		t.Fatalf("LocalDomain = %q", got)
	}
	ids := []ID{0, 2, 4, 3}
	for trial := 0; trial < 16; trial++ {
		order := r.replicaOrder(ids, "zone1", true)
		if len(order) != len(ids) {
			t.Fatalf("order %v narrowed the set %v", order, ids)
		}
		if d0, d1 := r.DomainOf(order[0]), r.DomainOf(order[1]); d0 != "zone1" || d1 != "zone1" {
			t.Fatalf("trial %d: local replicas not first: %v", trial, order)
		}
		seen := map[ID]bool{}
		for _, id := range order {
			seen[id] = true
		}
		for _, id := range ids {
			if !seen[id] {
				t.Fatalf("trial %d: order %v dropped replica %d", trial, order, id)
			}
		}
	}
	// Without preference (or without a domain) the rotation is returned
	// untouched: first elements must vary across calls.
	firsts := map[ID]bool{}
	for trial := 0; trial < 32; trial++ {
		firsts[r.replicaOrder(ids, "zone1", false)[0]] = true
	}
	if len(firsts) < 2 {
		t.Fatalf("measure-only mode pinned the rotation: firsts = %v", firsts)
	}
}

// TestZoneLocalReadsStayLocal: zone-local selection serves every read
// from the reader's domain while a local copy is live, and the locality
// counters record it.
func TestZoneLocalReadsStayLocal(t *testing.T) {
	r, _ := cachedRouter(t, 6, 3, 2)
	r.SetReadCache(nil) // count provider reads, not cache hits
	r.SetReadLocality("zone0", true)
	data := []byte("stay local")
	// Write chunks until one has a zone0 replica (R=2 over 3 domains —
	// most do).
	var key chunk.Key
	found := false
	for i := 0; i < 8 && !found; i++ {
		key = chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}
		ids, err := r.Put(key, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if r.DomainOf(id) == "zone0" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no chunk landed a zone0 replica in 8 writes")
	}
	before := r.ReadLocality()
	for i := 0; i < 10; i++ {
		if _, err := r.Get(key, 0, int64(len(data))); err != nil {
			t.Fatal(err)
		}
	}
	st := r.ReadLocality()
	if got := st.LocalReads - before.LocalReads; got != 10 {
		t.Fatalf("%d of 10 reads local (stats %+v)", got, st)
	}
	if st.RemoteReads != before.RemoteReads {
		t.Fatalf("zone-local read went remote: %+v", st)
	}
	if st.CrossFraction() != 0 {
		t.Fatalf("CrossFraction = %v with only local reads", st.CrossFraction())
	}
	// Kill the zone0 copy: the read must fail over remotely, not fail.
	ids, _ := r.Locate(key)
	for _, id := range ids {
		if r.DomainOf(id) == "zone0" {
			if err := r.SetDown(id, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.Get(key, 0, int64(len(data))); err != nil {
		t.Fatalf("read with dead local copy failed: %v", err)
	}
	if got := r.ReadLocality(); got.RemoteReads == st.RemoteReads {
		t.Fatalf("failover read not counted remote: %+v", got)
	}
}

// TestRouterGetReadThrough: the first Get fills the cache, later Gets
// (including sub-ranges of the cached prefix) are served from it.
func TestRouterGetReadThrough(t *testing.T) {
	r, cache := cachedRouter(t, 4, 2, 2)
	key := chunk.Key{Blob: 1, Version: 1}
	data := []byte("hot chunk bytes")
	if _, err := r.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(key, 0, int64(len(data)))
	if err != nil || string(got) != string(data) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	st := cache.Stats()
	if st.Fills != 1 || st.Hits != 0 {
		t.Fatalf("first read should fill, not hit: %+v", st)
	}
	// Served from cache now — even with every provider down.
	for _, p := range r.Providers() {
		if err := r.SetDown(p.ID(), true); err != nil {
			t.Fatal(err)
		}
	}
	got, err = r.Get(key, 4, 5)
	if err != nil || string(got) != "chunk" {
		t.Fatalf("cached sub-range = %q, %v", got, err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("second read should hit: %+v", st)
	}
}

// TestGetFromCacheLifecycle walks a chunk's life through the shared
// cache while repair moves every copy: a read after the move returns
// the writer's bytes from the copies placement names now and fills the
// cache, a later read is served from the cache, and the next placement
// change drops the entry. The deprecated GetFrom, handed the write-time
// set, reads the same and never returns a fresh set.
func TestGetFromCacheLifecycle(t *testing.T) {
	r, cache := cachedRouter(t, 4, 2, 2)
	key := chunk.Key{Blob: 7, Version: 1}
	data := []byte("lifecycle")
	orig, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	// Kill the original replicas one at a time, repairing between the
	// losses (killing both at once would genuinely lose the data):
	// placement ends up fully moved.
	for _, id := range orig {
		if err := r.SetDown(id, true); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.RepairChunk(key); err != nil {
			t.Fatal(err)
		}
	}
	moved, _ := r.Locate(key)
	for _, id := range moved {
		if slices.Contains(orig, id) {
			t.Fatalf("repair did not move placement: %v", moved)
		}
	}
	for i := 0; i < 2; i++ {
		got, fresh, err := r.GetFrom(orig, key, 0, int64(len(data)))
		if err != nil || string(got) != string(data) || fresh != nil {
			t.Fatalf("read %d after the move = %q, %v, fresh %v", i, got, err, fresh)
		}
	}
	if st := cache.Stats(); st.Fills != 1 || st.Hits != 1 {
		t.Fatalf("the first read should fill, the second hit: %+v", st)
	}
	// Placement changes invalidate: revive the originals, kill one
	// current holder, repair — the cached entry must be gone.
	for _, id := range orig {
		if err := r.SetDown(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetDown(moved[0], true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.RepairChunk(key); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Invalidations == 0 {
		t.Fatalf("repair did not invalidate: %+v", st)
	}
	if _, ok := cache.GetData(key, 0, 1); ok {
		t.Fatal("cached data survived the placement change")
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
		t.Fatalf("read after invalidation = %q, %v", got, err)
	}
}

// TestDeleteReplicasInvalidatesCache: version GC deleting a chunk drops
// its cache entry, so a cached copy cannot outlive the data.
func TestDeleteReplicasInvalidatesCache(t *testing.T) {
	r, cache := cachedRouter(t, 4, 2, 2)
	key := chunk.Key{Blob: 9, Version: 3}
	if _, err := r.Put(key, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(key, 0, 6); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetData(key, 0, 6); !ok {
		t.Fatal("read did not fill the cache")
	}
	if _, _, err := r.DeleteReplicas(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.GetData(key, 0, 6); ok {
		t.Fatal("cache served a GC'd chunk")
	}
	if _, err := r.Get(key, 0, 6); !errors.Is(err, chunk.ErrNotFound) {
		t.Fatalf("read after delete = %v, want ErrNotFound", err)
	}
}

// TestGetFromFallbackFreshMatchesServingSet: the deprecated GetFrom
// reads what Get reads — the set placement names, snapshotted once —
// whatever set it is handed, and never returns a fresh one; a read after
// repair moved a copy returns the writer's bytes.
func TestGetFromFallbackFreshMatchesServingSet(t *testing.T) {
	r, _ := replicatedRouter(t, 4, 2)
	key := chunk.Key{Blob: 3, Version: 1}
	data := []byte("served set")
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetDown(ids[0], true); err != nil {
		t.Fatal(err)
	}
	if outcome, _, err := r.RepairChunk(key); outcome != RepairRepaired || err != nil {
		t.Fatalf("repair = %v, %v", outcome, err)
	}
	for _, set := range [][]ID{nil, ids, {97, 98}} {
		got, fresh, err := r.GetFrom(set, key, 0, int64(len(data)))
		if err != nil || string(got) != string(data) || fresh != nil {
			t.Fatalf("GetFrom(%v) = %q, %v, fresh %v", set, got, err, fresh)
		}
	}
}

// TestReadTierRace exercises cache fills racing RepairChunk and
// DeleteReplicas invalidation — run under -race, this is the memory-
// model check for the whole read tier. A read racing a move must never
// fail before the chunk is deleted.
func TestReadTierRace(t *testing.T) {
	r, cache := cachedRouter(t, 6, 3, 2)
	r.SetReadLocality("zone0", true)
	const chunks = 8
	data := []byte("racing bytes")
	keys := make([]chunk.Key, chunks)
	hints := make([][]ID, chunks)
	for i := range keys {
		keys[i] = chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}
		ids, err := r.Put(keys[i], data)
		if err != nil {
			t.Fatal(err)
		}
		hints[i] = ids
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % chunks
				var got []byte
				var err error
				if i%2 == 0 {
					got, err = r.Get(keys[k], 0, int64(len(data)))
				} else {
					got, _, err = r.GetFrom(hints[k], keys[k], 0, int64(len(data)))
				}
				if err != nil {
					t.Errorf("read of %v failed mid-churn: %v", keys[k], err)
					return
				}
				if string(got) != string(data) {
					t.Errorf("read of %v = %q", keys[k], got)
					return
				}
			}
		}(g)
	}
	// Churn placement concurrently with the readers: flip providers
	// down/up and repair everything, so setPlacement invalidations
	// race the fills above.
	for round := 0; round < 6; round++ {
		victim := ID(round % 6)
		if err := r.SetDown(victim, true); err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if _, _, err := r.RepairChunk(k); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.SetDown(victim, false); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if st := cache.Stats(); st.Fills == 0 {
		t.Fatalf("readers filled nothing: %+v", st)
	}
	// Now delete under concurrent-read-free conditions and confirm the
	// cache does not resurrect anything. The Get before each delete
	// re-fills the entry, so every delete exercises invalidation.
	for _, k := range keys {
		if _, err := r.Get(k, 0, int64(len(data))); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.DeleteReplicas(k); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Get(k, 0, 1); !errors.Is(err, chunk.ErrNotFound) {
			t.Fatalf("chunk %v readable after delete: %v", k, err)
		}
	}
	if st := cache.Stats(); st.Invalidations < chunks {
		t.Fatalf("deletes produced %d invalidations, want >= %d: %+v", st.Invalidations, chunks, st)
	}
}
