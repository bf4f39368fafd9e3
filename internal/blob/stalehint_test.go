package blob

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// recordingData wraps a DataService and counts the reads a handle makes
// through each of its read methods.
type recordingData struct {
	DataService
	mu          sync.Mutex
	gets, froms int
}

func (r *recordingData) Get(key chunk.Key, off, length int64) ([]byte, error) {
	r.mu.Lock()
	r.gets++
	r.mu.Unlock()
	return r.DataService.Get(key, off, length)
}

func (r *recordingData) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	r.mu.Lock()
	r.froms++
	r.mu.Unlock()
	return r.DataService.GetFrom(replicas, key, off, length)
}

// movedChunk writes payload as one chunk at R=2 through a handle on
// svc, then moves both of its copies: one holder dies, repair copies
// the chunk elsewhere, the other original holder dies too. Every
// provider the write stored the chunk on is then dead, and the data
// lives on providers the writer never saw.
func movedChunk(t *testing.T, svc Services, router *provider.Router, mgr *provider.Manager, payload []byte) (*Blob, uint64) {
	t.Helper()
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 64 << 10, Page: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(0, payload, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	keys := router.Keys()
	if len(keys) != 1 {
		t.Fatalf("expected 1 placed chunk, got %d", len(keys))
	}
	orig, _ := router.Locate(keys[0])
	if len(orig) != 2 {
		t.Fatalf("replica set %v, want 2 copies", orig)
	}
	if err := mgr.SetDown(orig[0], true); err != nil {
		t.Fatal(err)
	}
	if st := router.Repair(); st.Repaired != st.Degraded || st.Lost > 0 {
		t.Fatalf("repair: %+v", st)
	}
	if err := mgr.SetDown(orig[1], true); err != nil {
		t.Fatal(err)
	}
	return b, v
}

// TestStaleHintFallbackAndRefresh: a read after repair moved every copy
// of a chunk off the providers its writer stored it on returns the
// writer's bytes, every time, with one data-service Get per fragment:
// the handle asks the data service, whose placement map is the one
// answer to where the chunk lives, and records nothing of its own.
func TestStaleHintFallbackAndRefresh(t *testing.T) {
	mgr := memPool(4)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	rec := &recordingData{DataService: router}
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: rec,
	}
	payload := bytes.Repeat([]byte("stale-hint"), 100)
	b, v := movedChunk(t, svc, router, mgr, payload)
	for i := 0; i < 2; i++ {
		got, err := b.ReadAt(v, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read %d after the move: %v", i, err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.gets != 2 || rec.froms != 0 {
		t.Fatalf("two reads made %d Get and %d GetFrom calls, want 2 and 0", rec.gets, rec.froms)
	}
}

// TestSharedCacheHintLifecycle: two handles on one blob share the
// router's read cache. After repair moved the chunk's copies, handle
// 1's read returns the writer's bytes and fills the cache, handle 2's
// read is served from it, and the next placement change drops the entry
// for both — reads keep returning the writer's bytes throughout.
func TestSharedCacheHintLifecycle(t *testing.T) {
	mgr := memPool(4)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	cache := provider.NewReadCache(provider.ReadCacheConfig{MaxBytes: 256 << 10})
	router.SetReadCache(cache)
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: router,
	}
	payload := bytes.Repeat([]byte("shared"), 512)
	b1, v := movedChunk(t, svc, router, mgr, payload)
	b2, err := Open(svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	read := func(b *Blob) {
		t.Helper()
		got, err := b.ReadAt(v, 0, int64(len(payload)))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("read after the move: %v", err)
		}
	}
	read(b1)
	read(b2)
	if st := cache.Stats(); st.Fills != 1 || st.Hits != 1 {
		t.Fatalf("handle 1 should fill the shared cache and handle 2 hit it: %+v", st)
	}
	key := router.Keys()[0]
	now, _ := router.Locate(key)
	if err := mgr.SetDown(now[0], true); err != nil {
		t.Fatal(err)
	}
	if st := router.Repair(); st.Lost > 0 {
		t.Fatalf("repair: %+v", st)
	}
	if _, ok := cache.GetData(key, 0, 1); ok {
		t.Fatal("the cache still holds a chunk whose placement changed")
	}
	read(b2)
	read(b1)
}
