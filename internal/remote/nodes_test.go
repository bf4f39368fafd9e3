package remote

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

func leafNode(tag uint64) *segtree.Node {
	return &segtree.Node{Leaf: true, Frags: []segtree.Fragment{{
		Ext: extent.Extent{Offset: int64(tag), Length: 8},
		Ref: chunk.Ref{Key: chunk.Key{Blob: 1, Version: tag}, Length: 8},
	}}}
}

// nodeOutcome is what one NodeStore call returned, flattened so a
// remote client and a local store can be compared.
type nodeOutcome struct {
	Node  *segtree.Node
	Found bool
	Err   string
}

// runNodeScript drives one goroutine's worth of mixed ops against s.
// Every key belongs to the goroutine, so each outcome is the same
// whatever the interleaving with other goroutines.
func runNodeScript(s segtree.NodeStore, g int) []nodeOutcome {
	var out []nodeOutcome
	record := func(n *segtree.Node, found bool, err error) {
		o := nodeOutcome{Node: n, Found: found}
		if err != nil {
			o.Err = err.Error()
		}
		out = append(out, o)
	}
	for i := 0; i < 6; i++ {
		key := segtree.NodeKey{Version: uint64(g + 1), Offset: int64(i) * 512, Size: 512}
		n, found, err := s.TryGetNode(1, key)
		record(n, found, err) // not stored yet: no error
		record(nil, false, s.PutNode(1, key, leafNode(uint64(g*100+i))))
		record(nil, false, s.PutNode(1, key, leafNode(0))) // duplicate: fails alone
		n, err = s.GetNode(1, key)
		record(n, err == nil, err)
		n, found, err = s.TryGetNode(1, key)
		record(n, found, err)
		n, err = s.GetNode(1, segtree.NodeKey{Version: uint64(g + 1), Offset: int64(i) * 512, Size: 1024})
		record(n, err == nil, err) // never stored: an error
	}
	return out
}

// TestCombinedNodeCallsMatchStore: 64 goroutines of mixed put/get/tryget
// through one client return exactly what a local metadata.Store returns
// for the same calls, per-op errors included.
func TestCombinedNodeCallsMatchStore(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	const goroutines = 64
	got := make([][]nodeOutcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = runNodeScript(c, g)
		}(g)
	}
	wg.Wait()
	oracle := metadata.NewStore(2, iosim.CostModel{})
	for g := 0; g < goroutines; g++ {
		want := runNodeScript(oracle, g)
		if !reflect.DeepEqual(got[g], want) {
			for i := range want {
				if !reflect.DeepEqual(got[g][i], want[i]) {
					t.Fatalf("goroutine %d call %d: remote %+v, store %+v", g, i, got[g][i], want[i])
				}
			}
		}
	}
	// (Goroutine 0's first duplicate is byte-identical to what it
	// stored, and so the no-op the store's contract makes it.)
	if dup := got[1][2].Err; !strings.Contains(dup, metadata.ErrExists.Error()) {
		t.Fatalf("duplicate put: %q", dup)
	}
}

// TestNodeCallsCombineOnTheWire: a lone caller on an idle client costs
// exactly one request — a train of one — per op; 127 concurrent puts —
// one tile write's worth — share a handful of round trips.
func TestNodeCallsCombineOnTheWire(t *testing.T) {
	reg, creg := metrics.NewRegistry(), metrics.NewRegistry()
	_, ep := startCountedNode(t, "mem://", reg)
	c := dialClient(t, ep)
	c.SetMetrics(creg)
	trains := func() float64 { return roundTrips(creg) }

	key := segtree.NodeKey{Version: 1, Size: 512}
	if err := c.PutNode(1, key, leafNode(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.GetNode(1, key); err != nil {
			t.Fatal(err)
		}
		if _, found, err := c.TryGetNode(1, key); err != nil || !found {
			t.Fatalf("TryGetNode = %v, %v", found, err)
		}
	}
	if n := trains(); n != 11 {
		t.Fatalf("11 serial node calls made %v round trips", n)
	}

	const puts = 127
	start := make(chan struct{})
	errs := make(chan error, puts)
	for i := 0; i < puts; i++ {
		go func(i int) {
			<-start
			errs <- c.PutNode(1, segtree.NodeKey{Version: 2, Offset: int64(i) * 512, Size: 512}, leafNode(uint64(i)))
		}(i)
	}
	close(start)
	for i := 0; i < puts; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// No fewer than the 123 calls that found every connection busy need
	// at 32 to a train; how many more depends on who arrives when.
	if n := trains() - 11; n < 4 || n > puts/2 {
		t.Fatalf("%d concurrent puts made %v round trips, want a handful", puts, n)
	}
	snap := reg.Snapshot()
	for series, want := range map[string]float64{
		`bs_meta_node_ops_total{op="put"}`:    1 + puts,
		`bs_meta_node_ops_total{op="get"}`:    5,
		`bs_meta_node_ops_total{op="tryget"}`: 5,
		`bs_data_flush_ops_sum`:               11 + puts,
		`bs_data_requests_total{op="put"}`:    0,
	} {
		if snap[series] != want {
			t.Errorf("%s = %v, want %v", series, snap[series], want)
		}
	}
	if got := creg.Snapshot()["bs_data_train_ops_sum"]; got != 11+puts {
		t.Errorf("client bs_data_train_ops_sum = %v, want %d", got, 11+puts)
	}
}

// TestPropReadListOverFramedClients replays seeded random histories —
// overlapping multi-extent writes, buffered and pipelined, from two
// framed clients — and compares random list-reads of every version,
// through both, byte for byte with a flat image per version: blob's
// read/write property, with the bounded pools and their trains under
// it.
func TestPropReadListOverFramedClients(t *testing.T) {
	geo := segtree.Geometry{Capacity: 64 << 10, Page: 1 << 10}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, ep := startNode(t)
		w, err := blob.Create(dialClient(t, ep).Services(), 1, geo)
		if err != nil {
			t.Fatal(err)
		}
		r, err := blob.Open(dialClient(t, ep).Services(), 1)
		if err != nil {
			t.Fatal(err)
		}
		models := [][]byte{make([]byte, geo.Capacity)}
		for i := 0; i < 12; i++ {
			var l extent.List
			for n := 1 + rng.Intn(4); len(l) < n; {
				e := extent.Extent{Offset: rng.Int63n(geo.Capacity - 1), Length: 1 + rng.Int63n(3*geo.Page)}
				if e.End() > geo.Capacity || l.IntersectsExtent(e) {
					continue
				}
				l = append(l, e).Normalize()
			}
			buf := make([]byte, l.TotalLength())
			rng.Read(buf)
			vec, err := extent.NewVec(l, buf)
			if err != nil {
				t.Fatal(err)
			}
			h := []*blob.Blob{w, r}[rng.Intn(2)]
			v, err := h.WriteList(vec, blob.WriteOptions{Pipelined: rng.Intn(2) == 0})
			if err != nil || v != uint64(len(models)) {
				t.Fatalf("seed %d write %d: v%d, %v", seed, i, v, err)
			}
			img := bytes.Clone(models[v-1])
			vec.ScatterInto(img, 0)
			models = append(models, img)
		}
		for i := 0; i < 40; i++ {
			var q extent.List
			for n := 1 + rng.Intn(6); len(q) < n; {
				e := extent.Extent{Offset: rng.Int63n(geo.Capacity), Length: rng.Int63n(6 << 10)}
				if e.End() <= geo.Capacity {
					q = append(q, e) // unsorted, overlapping and empty extents stay
				}
			}
			v := uint64(rng.Intn(len(models)))
			var want []byte
			for _, e := range q {
				want = append(want, models[v][e.Offset:e.End()]...)
			}
			for name, h := range map[string]*blob.Blob{"writer": w, "reader": r} {
				got, err := h.ReadList(v, q)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: ReadList(v%d, %v): %v; differs from the model: %v",
						seed, name, v, q, err, !bytes.Equal(got, want))
				}
			}
		}
	}
}
