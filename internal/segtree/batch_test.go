package segtree_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/extent"
	"repro/internal/segtree"
)

// recStore is a plain NodeStore — the three per-call methods, nothing
// else — that keeps the encoded form of every node stored through it and
// counts the calls. A fixed third of the try-gets are answered "not
// stored yet", by key, so that builders chain leaves, the same ones on
// every store with the same history.
type recStore struct {
	inner segtree.NodeStore
	page  int64

	mu     sync.Mutex
	stored map[segtree.NodeKey][]byte
	calls  int // per-call methods
	lists  int // list methods (listStore)
}

func newRecStore(inner segtree.NodeStore, page int64) *recStore {
	return &recStore{inner: inner, page: page, stored: make(map[segtree.NodeKey][]byte)}
}

func (s *recStore) late(key segtree.NodeKey) bool {
	return (key.Version+uint64(key.Offset/s.page))%3 == 0
}

func (s *recStore) count(calls, lists int) {
	s.mu.Lock()
	s.calls += calls
	s.lists += lists
	s.mu.Unlock()
}

func (s *recStore) put(blob uint64, key segtree.NodeKey, n *segtree.Node) error {
	if err := s.inner.PutNode(blob, key, n); err != nil {
		return err
	}
	s.mu.Lock()
	s.stored[key] = segtree.AppendNode(nil, n)
	s.mu.Unlock()
	return nil
}

func (s *recStore) PutNode(blob uint64, key segtree.NodeKey, n *segtree.Node) error {
	s.count(1, 0)
	return s.put(blob, key, n)
}

func (s *recStore) GetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, error) {
	s.count(1, 0)
	return s.inner.GetNode(blob, key)
}

func (s *recStore) TryGetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	s.count(1, 0)
	if s.late(key) {
		return nil, false, nil
	}
	return s.inner.TryGetNode(blob, key)
}

// listStore is a recStore that also has the list methods, as the framed
// client does: each a serial loop here, counted as one list operation.
type listStore struct{ *recStore }

func (s listStore) PutNodes(blob uint64, keys []segtree.NodeKey, nodes []*segtree.Node) error {
	s.count(0, 1)
	var first error
	for i, key := range keys {
		if err := s.put(blob, key, nodes[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s listStore) GetNodes(blob uint64, keys []segtree.NodeKey, try bool) ([]*segtree.Node, error) {
	s.count(0, 1)
	nodes := make([]*segtree.Node, len(keys))
	for i, key := range keys {
		var err error
		switch {
		case !try:
			nodes[i], err = s.inner.GetNode(blob, key)
		case !s.late(key):
			nodes[i], _, err = s.inner.TryGetNode(blob, key)
		}
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// batchPair is one history applied to two trees: one over a store with
// the list methods, one over a store without.
type batchPair struct {
	batch, each     *harness
	listed          listStore
	plain           *recStore
	versions, depth int
}

// newBatchPair replays a seeded history on both: writes of 1-4 extents
// (partial pages, page-crossing, whole pages) and a tombstone every
// seventh version.
func newBatchPair(t *testing.T, seed int64) *batchPair {
	t.Helper()
	geo := segtree.Geometry{Capacity: 32 << 10, Page: 1 << 10}
	p := &batchPair{batch: newHarness(t, geo), each: newHarness(t, geo), depth: 6}
	p.listed = listStore{newRecStore(p.batch.tree.Store, geo.Page)}
	p.plain = newRecStore(p.each.tree.Store, geo.Page)
	p.batch.tree.Store, p.each.tree.Store = p.listed, p.plain

	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= 24; i++ {
		var l extent.List
		for n := 1 + rng.Intn(4); len(l) < n; {
			e := extent.Extent{Offset: rng.Int63n(geo.Capacity - 1), Length: 1 + rng.Int63n(3*geo.Page)}
			if rng.Intn(3) == 0 {
				e.Offset -= e.Offset % geo.Page
			}
			if e.End() <= geo.Capacity && !l.IntersectsExtent(e) {
				l = append(l, e).Normalize()
			}
		}
		for _, h := range []*harness{p.batch, p.each} {
			var v uint64
			if i%7 == 0 {
				v = h.tombstone(l)
			} else {
				v = h.write(vec(t, l, byte(i)))
			}
			if v != uint64(i) {
				t.Fatalf("write %d got version %d", i, v)
			}
		}
		p.versions = i
	}
	return p
}

// tombstone retires a ticket over l with BuildEmpty, as a failed write
// does.
func (h *harness) tombstone(l extent.List) uint64 {
	h.t.Helper()
	tk, err := h.mgr.AssignTicket(h.blob, l)
	if err != nil {
		h.t.Fatal(err)
	}
	root, err := h.tree.BuildEmpty(tk.Version, l, tk.Borrows)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.mgr.Complete(h.blob, tk.Version, root); err != nil {
		h.t.Fatal(err)
	}
	return tk.Version
}

// TestBuildBatchAndEachAgree: Build and BuildEmpty store byte-identical
// node sets whether the store has the list methods or is driven call by
// call — and over the list methods a write is at most two list
// operations and no per-call one.
func TestBuildBatchAndEachAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := newBatchPair(t, seed)
		if len(p.listed.stored) == 0 || len(p.listed.stored) != len(p.plain.stored) {
			t.Fatalf("seed %d: %d nodes stored over the list methods, %d call by call", seed, len(p.listed.stored), len(p.plain.stored))
		}
		chained := 0
		for key, enc := range p.listed.stored {
			if !bytes.Equal(enc, p.plain.stored[key]) {
				t.Fatalf("seed %d: node %s differs between the two stores", seed, key)
			}
			if n, err := segtree.DecodeNode(enc); err != nil {
				t.Fatal(err)
			} else if !n.Prev.IsZero() && len(n.Frags) > 0 {
				chained++
			}
		}
		if chained == 0 {
			t.Errorf("seed %d: no write chained a leaf", seed)
		}
		if p.plain.lists != 0 {
			t.Errorf("seed %d: %d list operations on a store without the methods", seed, p.plain.lists)
		}
	}

	// One write over pages written before: one try-get list, one
	// put list, nothing else.
	geo := segtree.Geometry{Capacity: 16 << 10, Page: 1 << 10}
	h := newHarness(t, geo)
	listed := listStore{newRecStore(h.tree.Store, geo.Page)}
	h.tree.Store = listed
	l := extent.List{{Offset: 100, Length: 5000}, {Offset: 9000, Length: 300}}
	h.write(vec(t, l, 1))
	if listed.lists != 1 || listed.calls != 0 {
		t.Fatalf("a first write made %d list operations and %d calls, want 1 and 0", listed.lists, listed.calls)
	}
	h.write(vec(t, l, 2))
	if listed.lists != 3 || listed.calls != 0 {
		t.Fatalf("two writes made %d list operations and %d calls, want 3 and 0", listed.lists, listed.calls)
	}
	h.tombstone(l)
	if listed.lists != 4 || listed.calls != 0 {
		t.Fatalf("a tombstone brought the count to %d list operations and %d calls, want 4 and 0", listed.lists, listed.calls)
	}
}

// TestResolveBatchAndEachAgree: every version of the history — the zero
// root, tombstones and chained leaves included — resolves random queries
// to identical fragments and holes over both stores, and over the list
// methods a walk is one list get per level plus one per chain link, and
// no per-call one.
func TestResolveBatchAndEachAgree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := newBatchPair(t, seed)
		geo := p.batch.tree.Geo
		rng := rand.New(rand.NewSource(seed + 100))
		holey := false
		for i := 0; i < 120; i++ {
			var q extent.List
			for n := 1 + rng.Intn(5); len(q) < n; {
				e := extent.Extent{Offset: rng.Int63n(geo.Capacity), Length: rng.Int63n(6 << 10)}
				if e.End() <= geo.Capacity {
					q = append(q, e)
				}
			}
			if i%10 == 0 {
				q = extent.List{geo.Root()}
			}
			v := uint64(rng.Intn(p.versions + 1))
			var out [2]string
			for j, h := range []*harness{p.batch, p.each} {
				info, err := h.mgr.Snapshot(h.blob, v)
				if err != nil {
					t.Fatal(err)
				}
				if (v == 0) != info.Root.IsZero() {
					t.Fatalf("version %d has root %s", v, info.Root)
				}
				lists, calls := p.listed.lists, p.listed.calls
				frags, holes, err := h.tree.Resolve(info.Root, q)
				if err != nil {
					t.Fatalf("seed %d: Resolve(v%d, %v): %v", seed, v, q, err)
				}
				if j == 0 {
					// 24 versions at most chain a leaf 24 deep.
					if got := p.listed.lists - lists; got > p.depth+p.versions || p.listed.calls != calls {
						t.Fatalf("seed %d: Resolve(v%d, %v) made %d list gets and %d calls", seed, v, q, got, p.listed.calls-calls)
					}
					if covered := (extent.List{}).Union(holes); len(frags) > 0 && len(covered) > 0 {
						holey = true
					}
					var got extent.List
					for _, f := range frags {
						got = append(got, f.Ext)
					}
					if want := q.Normalize(); !got.Union(holes).Equal(want) || got.Overlaps(holes) {
						t.Fatalf("seed %d: Resolve(v%d, %v): fragments and holes do not tile the query", seed, v, q)
					}
				}
				out[j] = fmt.Sprintf("%+v %+v", frags, holes)
				if j == 1 && !reflect.DeepEqual(out[0], out[1]) {
					t.Fatalf("seed %d: Resolve(v%d, %v) differs:\n list: %s\n each: %s", seed, v, q, out[0], out[1])
				}
			}
		}
		if !holey {
			t.Errorf("seed %d: no query met both data and a hole", seed)
		}
	}
}
