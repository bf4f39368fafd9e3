package segtree_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/extent"
	"repro/internal/metadata"
	"repro/internal/segtree"
)

// probeStore counts the calls that reach the store it wraps and fails
// the next failGets GetNode / failPuts PutNode calls.
type probeStore struct {
	segtree.NodeStore
	gets, tries, puts  atomic.Int64
	failGets, failPuts atomic.Int64
}

var errInjected = errors.New("injected store failure")

func (p *probeStore) PutNode(blob uint64, key segtree.NodeKey, n *segtree.Node) error {
	p.puts.Add(1)
	if p.failPuts.Add(-1) >= 0 {
		return errInjected
	}
	return p.NodeStore.PutNode(blob, key, n)
}

func (p *probeStore) GetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, error) {
	p.gets.Add(1)
	if p.failGets.Add(-1) >= 0 {
		return nil, errInjected
	}
	return p.NodeStore.GetNode(blob, key)
}

func (p *probeStore) TryGetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	p.tries.Add(1)
	return p.NodeStore.TryGetNode(blob, key)
}

// cachedHarness is a harness whose tree reads and writes through a
// NodeCache of the given capacity over a probeStore.
func cachedHarness(t testing.TB, geo segtree.Geometry, capacity int) (*harness, *probeStore, *segtree.NodeCache) {
	h := newHarness(t, geo)
	probe := &probeStore{NodeStore: h.tree.Store}
	cache := segtree.NewNodeCache(probe, capacity)
	h.tree.Store = cache
	return h, probe, cache
}

func leafKey(i int) segtree.NodeKey {
	return segtree.NodeKey{Version: 1, Offset: int64(i) << 10, Size: 1 << 10}
}

// putLeaves stores n distinct leaves directly in the inner store, so
// the cache has never seen them.
func putLeaves(t *testing.T, probe *probeStore, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := probe.NodeStore.PutNode(1, leafKey(i), &segtree.Node{Leaf: true}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNodeCacheHitsNeverReachTheStore(t *testing.T) {
	geo := segtree.Geometry{Capacity: 64 << 10, Page: 1 << 10}
	h, probe, cache := cachedHarness(t, geo, 1024)
	l := extent.List{{Offset: 100, Length: 5000}, {Offset: 40 << 10, Length: 3000}}
	v := h.write(vec(t, l, 7))

	// Every node of the version was written through: the writer
	// re-reads what it wrote without one GetNode.
	want := h.read(v, l)
	if got := probe.gets.Load(); got != 0 {
		t.Fatalf("read-your-writes reached the store %d times", got)
	}
	if !bytes.Equal(want, bytes.Repeat([]byte{7}, len(want))) {
		t.Fatal("read-your-writes returned wrong bytes")
	}

	// A second handle sees the nodes once, then never again.
	probe2 := &probeStore{NodeStore: probe.NodeStore}
	cache2 := segtree.NewNodeCache(probe2, 1024)
	h.tree.Store = cache2
	if got := h.read(v, l); !bytes.Equal(got, want) {
		t.Fatal("cold read differs")
	}
	cold := probe2.gets.Load()
	if cold == 0 {
		t.Fatal("cold read fetched nothing")
	}
	if got := h.read(v, l); !bytes.Equal(got, want) {
		t.Fatal("warm read differs")
	}
	if probe2.gets.Load() != cold {
		t.Fatalf("warm read reached the store: %d gets, then %d", cold, probe2.gets.Load())
	}
	st := cache2.Stats()
	if st.Misses != cold || st.Hits != cold || st.Entries != int(cold) {
		t.Fatalf("stats %+v, want %d misses, hits and entries", st, cold)
	}
	if st := cache.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("writer stats %+v, want hits only", st)
	}
}

func TestNodeCacheNeverCachesErrorsOrProbes(t *testing.T) {
	geo := segtree.Geometry{Capacity: 8 << 10, Page: 1 << 10}
	_, probe, cache := cachedHarness(t, geo, 16)
	putLeaves(t, probe, 2)

	// A failed GetNode is asked again.
	probe.failGets.Store(1)
	if _, err := cache.GetNode(1, leafKey(0)); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if _, err := cache.GetNode(1, leafKey(0)); err != nil {
		t.Fatal(err)
	}
	if got := probe.gets.Load(); got != 2 {
		t.Fatalf("%d gets reached the store, want 2: an error was cached", got)
	}
	// So is a missing node, however often.
	for i := 0; i < 2; i++ {
		if _, err := cache.GetNode(1, leafKey(5)); err == nil {
			t.Fatal("missing node returned no error")
		}
	}
	if got := probe.gets.Load(); got != 4 {
		t.Fatalf("%d gets reached the store, want 4: a miss was cached", got)
	}

	// TryGetNode answers what the cache can answer — a found node never
	// becomes not-found — and caches a node the store finds; "not stored
	// yet" is asked again every time.
	before := cache.Stats()
	for i := 0; i < 3; i++ {
		if _, ok, err := cache.TryGetNode(1, leafKey(0)); err != nil || !ok {
			t.Fatalf("TryGetNode(cached) = %v, %v", ok, err)
		}
		if _, ok, err := cache.TryGetNode(1, leafKey(1)); err != nil || !ok {
			t.Fatalf("TryGetNode(uncached) = %v, %v", ok, err)
		}
		if _, ok, err := cache.TryGetNode(1, leafKey(6)); err != nil || ok {
			t.Fatalf("TryGetNode(absent) = %v, %v", ok, err)
		}
	}
	if got := probe.tries.Load(); got != 4 {
		t.Fatalf("%d probes reached the store, want 4: one for the stored node, three for the absent one", got)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Hits-before.Hits != 5 || st.Misses-before.Misses != 4 {
		t.Fatalf("stats %+v after the probes (from %+v): want 2 entries, 5 more hits, 4 more misses", st, before)
	}
	// A leaf this handle stored is the predecessor its next write flattens
	// over: the probe for it never leaves the handle.
	if err := cache.PutNode(1, leafKey(3), &segtree.Node{Leaf: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cache.TryGetNode(1, leafKey(3)); err != nil || !ok {
		t.Fatalf("TryGetNode(just stored) = %v, %v", ok, err)
	}
	if got := probe.tries.Load(); got != 4 {
		t.Fatalf("a probe for a node this cache stored reached the store (%d probes)", got)
	}
	entries := cache.Stats().Entries

	// A refused PutNode is not cached either.
	probe.failPuts.Store(1)
	if err := cache.PutNode(1, leafKey(7), &segtree.Node{Leaf: true}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if st := cache.Stats(); st.Entries != entries {
		t.Fatalf("a refused put was cached: %+v", st)
	}
	if _, err := cache.GetNode(1, leafKey(7)); err == nil {
		t.Fatal("a refused put is readable")
	}
}

// The eviction order is LRU: fixed by the access sequence alone, so
// two caches fed the same sequence miss on exactly the same calls.
func TestNodeCacheEvictionIsDeterministicLRU(t *testing.T) {
	geo := segtree.Geometry{Capacity: 16 << 10, Page: 1 << 10}
	run := func(seq []int) (misses []bool) {
		_, probe, cache := cachedHarness(t, geo, 3)
		putLeaves(t, probe, 8)
		for _, i := range seq {
			before := probe.gets.Load()
			if _, err := cache.GetNode(1, leafKey(i)); err != nil {
				t.Fatal(err)
			}
			misses = append(misses, probe.gets.Load() != before)
			if st := cache.Stats(); st.Entries > 3 {
				t.Fatalf("%d entries in a cache of 3", st.Entries)
			}
		}
		return misses
	}
	// 0 1 2 fill; 0 is touched; 3 evicts 1 (the least recent), not 0;
	// 1 evicts 2; 2 evicts 0.
	seq := []int{0, 1, 2, 0, 3, 0, 1, 3, 2, 0}
	want := []bool{true, true, true, false, true, false, true, false, true, true}
	got := run(seq)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("misses %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(5))
	long := make([]int, 2000)
	for i := range long {
		long[i] = rng.Intn(8)
	}
	if a, b := run(long), run(long); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("one access sequence, two eviction orders")
	}
}

// Concurrent walks and node stores through one small cache, over the
// in-process store and over a loopback client, whose walks fill the
// cache from their replies: run under -race. Every read must match the
// oracle and the bound must hold while entries are being evicted under
// the readers.
func TestNodeCacheConcurrentResolveAndPut(t *testing.T) {
	for _, inner := range []string{"inprocess", "loopback"} {
		t.Run(inner, func(t *testing.T) { concurrentResolveAndPut(t, inner == "loopback") })
	}
}

func concurrentResolveAndPut(t *testing.T, wire bool) {
	geo := segtree.Geometry{Capacity: 64 << 10, Page: 1 << 10}
	const capacity = 48 // smaller than one full tree: walks evict each other
	h := newHarness(t, geo)
	var inner segtree.NodeStore = h.tree.Store
	if wire {
		inner = loopback(t, h.tree.Store.(*metadata.Store))
	}
	cache := segtree.NewNodeCache(inner, capacity)
	h.tree.Store = cache
	oracle := make([]byte, geo.Capacity)
	rng := rand.New(rand.NewSource(9))
	randomWrite := func(fill byte) {
		off := rng.Int63n(geo.Capacity - 8<<10)
		l := extent.List{{Offset: off, Length: 1 + rng.Int63n(8<<10)}}
		h.write(vec(t, l, fill))
		for i := l[0].Offset; i < l[0].End(); i++ {
			oracle[i] = fill
		}
	}
	for i := 0; i < 20; i++ {
		randomWrite(byte(i + 1))
	}
	base := uint64(20)
	frozen := bytes.Clone(oracle)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				off := rng.Int63n(geo.Capacity - 16<<10)
				q := extent.List{{Offset: off, Length: 1 + rng.Int63n(16<<10)}}
				if got := h.read(base, q); !bytes.Equal(got, frozen[q[0].Offset:q[0].End()]) {
					t.Errorf("concurrent read of %v differs from the oracle", q)
					return
				}
				if st := cache.Stats(); st.Entries > capacity {
					t.Errorf("%d entries in a cache of %d", st.Entries, capacity)
					return
				}
			}
		}(int64(r))
	}
	// The writer keeps storing nodes through the same cache.
	for i := 0; i < 60; i++ {
		randomWrite(byte(100 + i))
	}
	close(stop)
	wg.Wait()
	if got := h.read(base+60, extent.List{geo.Root()}); !bytes.Equal(got, oracle) {
		t.Fatal("final image differs from the oracle")
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 || st.Entries > capacity {
		t.Fatalf("stats %+v: want hits, misses and at most %d entries", st, capacity)
	}
}
