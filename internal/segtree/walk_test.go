package segtree_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/segtree"
)

// randomQuery is 1-5 random extents within geo, or — every tenth — the
// whole address space.
func randomQuery(rng *rand.Rand, geo segtree.Geometry, i int) extent.List {
	if i%10 == 0 {
		return extent.List{geo.Root()}
	}
	var q extent.List
	for n := 1 + rng.Intn(5); len(q) < n; {
		e := extent.Extent{Offset: rng.Int63n(geo.Capacity), Length: rng.Int63n(6 << 10)}
		if e.End() <= geo.Capacity {
			q = append(q, e)
		}
	}
	return q
}

// TestWalkRefusesBadLinks: a store may hold nodes no Build wrote — any
// client can put them. A link that loops or leaves its range is refused
// with ErrBadLink, in process and by the metadata node's walk alike, by
// a resolve and by the two comparisons, Diff and ExclusiveChunks, where a
// walk that followed a self-referencing chain used to spin for good and
// a Diff that followed a self-linked inner node overflowed the stack. The
// comparisons also refuse a node off its level — a leaf above the page
// size, an inner node at it — which a resolve reads like any other.
func TestWalkRefusesBadLinks(t *testing.T) {
	const page = 1 << 10
	root := segtree.NodeKey{Version: 5, Offset: 0, Size: 2 * page}
	left := segtree.NodeKey{Version: 5, Offset: 0, Size: page}
	inner := func(l, r segtree.NodeKey) *segtree.Node { return &segtree.Node{Left: l, Right: r} }
	leaf := func(prev segtree.NodeKey) *segtree.Node { return &segtree.Node{Leaf: true, Prev: prev} }
	for _, tc := range []struct {
		name     string
		root     segtree.NodeKey
		nodes    map[segtree.NodeKey]*segtree.Node
		offLevel bool // refused by the comparisons alone
	}{
		{"leaf chained to itself", left, map[segtree.NodeKey]*segtree.Node{left: leaf(left)}, false},
		{"leaf chained to a newer version", left, map[segtree.NodeKey]*segtree.Node{left: leaf(segtree.NodeKey{Version: 6, Size: page})}, false},
		{"leaf chained to another range", left, map[segtree.NodeKey]*segtree.Node{left: leaf(segtree.NodeKey{Version: 4, Size: 2 * page})}, false},
		{"child linked back to its parent", root, map[segtree.NodeKey]*segtree.Node{root: inner(root, segtree.NodeKey{})}, false},
		{"child not a half", root, map[segtree.NodeKey]*segtree.Node{root: inner(segtree.NodeKey{Version: 5, Size: page / 2}, segtree.NodeKey{})}, false},
		{"right child on the left half", root, map[segtree.NodeKey]*segtree.Node{root: inner(segtree.NodeKey{}, left)}, false},
		{"child newer than its parent", root, map[segtree.NodeKey]*segtree.Node{root: inner(segtree.NodeKey{Version: 6, Size: page}, segtree.NodeKey{})}, false},
		{"inner node with no halves", segtree.NodeKey{Version: 5, Size: 1}, map[segtree.NodeKey]*segtree.Node{
			{Version: 5, Size: 1}: inner(segtree.NodeKey{Version: 5, Size: 0}, segtree.NodeKey{Version: 5, Size: 0}),
		}, false},
		{"leaf above the page size", root, map[segtree.NodeKey]*segtree.Node{root: leaf(segtree.NodeKey{})}, true},
		{"inner node at the page size", left, map[segtree.NodeKey]*segtree.Node{left: inner(segtree.NodeKey{}, segtree.NodeKey{})}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := metadata.NewStore(1, iosim.CostModel{})
			for k, n := range tc.nodes {
				if err := store.PutNode(1, k, n); err != nil {
					t.Fatal(err)
				}
			}
			ops := []struct {
				name string
				run  func(tree *segtree.Tree) error
			}{
				{"Resolve", func(tree *segtree.Tree) error {
					_, _, err := tree.Resolve(tc.root, extent.List{tc.root.Range()})
					return err
				}},
				{"Diff", func(tree *segtree.Tree) error {
					_, err := tree.Diff(tc.root, segtree.NodeKey{})
					return err
				}},
				{"ExclusiveChunks", func(tree *segtree.Tree) error {
					_, err := tree.ExclusiveChunks(tc.root, nil)
					return err
				}},
			}
			for name, s := range map[string]segtree.NodeStore{"in process": store, "over the wire": loopback(t, store)} {
				tree := &segtree.Tree{Blob: 1, Geo: segtree.Geometry{Capacity: 2 * page, Page: page}, Store: s}
				for _, op := range ops {
					done := make(chan error, 1)
					go func() { done <- op.run(tree) }()
					select {
					case err := <-done:
						if tc.offLevel && op.name == "Resolve" {
							if err != nil {
								t.Fatalf("Resolve %s: %v", name, err)
							}
						} else if !errors.Is(err, segtree.ErrBadLink) {
							t.Fatalf("%s %s: %v, want ErrBadLink", op.name, name, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s %s did not return", op.name, name)
					}
				}
			}
		})
	}
}

// loopback serves store from a metadata node and returns a framed client
// of it.
func loopback(tb testing.TB, store *metadata.Store) *remote.Client {
	tb.Helper()
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{Meta: store})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { node.Close() })
	c, err := remote.DialFramed(remote.Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// seqStore is a store with the list methods that records the keys of
// every list get that reaches it, in order.
type seqStore struct {
	segtree.NodeStore
	mu    sync.Mutex
	lists [][]segtree.NodeKey
}

func (s *seqStore) PutNodes(blob uint64, keys []segtree.NodeKey, nodes []*segtree.Node) error {
	for i, key := range keys {
		if err := s.PutNode(blob, key, nodes[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *seqStore) GetNodes(blob uint64, keys []segtree.NodeKey, _ bool) ([]*segtree.Node, error) {
	s.mu.Lock()
	s.lists = append(s.lists, slices.Clone(keys))
	s.mu.Unlock()
	nodes := make([]*segtree.Node, len(keys))
	for i, key := range keys {
		var err error
		if nodes[i], err = s.GetNode(blob, key); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// levelByLevel is the key list of every list get a resolve of q from root
// made before walks existed: one per level of the tree, then one per link
// of the leaves' chains, in that order — the sequence an in-process store
// (and so every metered E-table count) must still see.
func levelByLevel(t *testing.T, s segtree.NodeStore, blob uint64, root segtree.NodeKey, q extent.List) [][]segtree.NodeKey {
	t.Helper()
	if q = q.Normalize(); len(q) == 0 || root.IsZero() {
		return nil
	}
	var lists [][]segtree.NodeKey
	get := func(keys []segtree.NodeKey) []*segtree.Node {
		lists = append(lists, keys)
		nodes := make([]*segtree.Node, len(keys))
		for i, key := range keys {
			var err error
			if nodes[i], err = s.GetNode(blob, key); err != nil {
				t.Fatal(err)
			}
		}
		return nodes
	}
	type leaf struct {
		n *segtree.Node
		q extent.List
	}
	var leaves []leaf
	keys, parts := []segtree.NodeKey{root}, []extent.List{q}
	for len(keys) > 0 {
		var below []segtree.NodeKey
		var belowQ []extent.List
		for i, n := range get(keys) {
			if n.Leaf {
				leaves = append(leaves, leaf{n, parts[i]})
				continue
			}
			lq, rq := parts[i].Cut(keys[i].Offset + keys[i].Size/2)
			for _, c := range []struct {
				k segtree.NodeKey
				q extent.List
			}{{n.Left, lq}, {n.Right, rq}} {
				if len(c.q) > 0 && !c.k.IsZero() {
					below, belowQ = append(below, c.k), append(belowQ, c.q)
				}
			}
		}
		keys, parts = below, belowQ
	}
	for len(leaves) > 0 {
		var behind []leaf
		keys = nil
		for _, l := range leaves {
			var covered extent.List
			for _, f := range l.n.Frags {
				covered = append(covered, f.Ext)
			}
			if rest := l.q.Subtract(covered); len(rest) > 0 && !l.n.Prev.IsZero() {
				behind, keys = append(behind, leaf{q: rest}), append(keys, l.n.Prev)
			}
		}
		if len(keys) == 0 {
			break
		}
		for i, n := range get(keys) {
			behind[i].n = n
		}
		leaves = behind
	}
	return lists
}

// TestResolveWithoutWalkAsksLevelByLevel: over a store that does not walk
// — in process, bare or under a cold NodeCache — Resolve issues exactly
// the list gets it issued before walks existed, chained leaves included.
func TestResolveWithoutWalkAsksLevelByLevel(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		p := newBatchPair(t, seed)
		geo, plain := p.each.tree.Geo, p.plain.inner
		rng := rand.New(rand.NewSource(seed + 200))
		for i := 0; i < 60; i++ {
			q := randomQuery(rng, geo, i)
			info, err := p.each.mgr.Snapshot(p.each.blob, uint64(1+rng.Intn(p.versions)))
			if err != nil {
				t.Fatal(err)
			}
			want := levelByLevel(t, plain, p.each.blob, info.Root, q)
			for _, cached := range []bool{false, true} {
				seq := &seqStore{NodeStore: plain}
				var store segtree.NodeStore = seq
				if cached {
					store = segtree.NewNodeCache(seq, 4096)
				}
				tree := &segtree.Tree{Blob: p.each.blob, Geo: geo, Store: store}
				if _, _, err := tree.Resolve(info.Root, q); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq.lists, want) {
					t.Fatalf("seed %d: Resolve(%s, %v), cached %v, asked\n %v\nwant\n %v", seed, info.Root, q, cached, seq.lists, want)
				}
			}
		}
	}
}

// TestResolveWireWalkAgrees: random histories with chained leaves and
// tombstones, served by a metadata node, resolve through the framed
// client's walk — bare, under a node cache small enough to evict
// mid-walk, and under a fresh cache of one node — to exactly what they
// resolve to in process. A walk from a cold root is one round trip.
func TestResolveWireWalkAgrees(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := newBatchPair(t, seed)
		geo := p.each.tree.Geo
		c := loopback(t, p.plain.inner.(*metadata.Store))
		reg := metrics.NewRegistry()
		c.SetMetrics(reg)
		trips := func() float64 { return reg.Snapshot()["bs_data_train_ops_count"] }
		bare := &segtree.Tree{Blob: p.each.blob, Geo: geo, Store: c}
		cached := &segtree.Tree{Blob: p.each.blob, Geo: geo, Store: segtree.NewNodeCache(c, 16)}

		rng := rand.New(rand.NewSource(seed + 300))
		for i := 0; i < 120; i++ {
			q := randomQuery(rng, geo, i)
			info, err := p.each.mgr.Snapshot(p.each.blob, uint64(rng.Intn(p.versions+1)))
			if err != nil {
				t.Fatal(err)
			}
			frags, holes, err := p.each.tree.Resolve(info.Root, q)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%+v %+v", frags, holes)
			tiny := &segtree.Tree{Blob: p.each.blob, Geo: geo, Store: segtree.NewNodeCache(c, 1)}
			for name, tree := range map[string]*segtree.Tree{"bare": bare, "cached": cached, "tiny": tiny} {
				before := trips()
				frags, holes, err := tree.Resolve(info.Root, q)
				if err != nil {
					t.Fatalf("seed %d %s: Resolve(%s, %v): %v", seed, name, info.Root, q, err)
				}
				if got := fmt.Sprintf("%+v %+v", frags, holes); got != want {
					t.Fatalf("seed %d %s: Resolve(%s, %v) differs:\n wire: %s\n here: %s", seed, name, info.Root, q, got, want)
				}
				// A reply brings every level below the misses it was sent
				// for and serves the whole resolve, however little of it the
				// cache keeps: from a cold root, one round trip.
				if n := trips() - before; name != "cached" && n != 1 && !info.Root.IsZero() {
					t.Fatalf("seed %d %s: a walk of %s took %v round trips", seed, name, info.Root, n)
				}
			}
		}
	}
}
