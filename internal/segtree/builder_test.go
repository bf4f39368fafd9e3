package segtree_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/segtree"
)

// writePipelined is harness.write through the pipelined Builder:
// chunks are stored concurrently and each ref is handed to the builder
// as it lands, mimicking blob.storeChunks' pipelined mode.
func (h *harness) writePipelined(v extent.Vec) uint64 {
	h.t.Helper()
	tk, err := h.mgr.AssignTicket(h.blob, v.Extents)
	if err != nil {
		h.t.Fatal(err)
	}
	// Page-split first: the builder's pieces are the split extents.
	var placed []segtree.Placed
	var start int64
	for _, e := range v.Extents {
		placed = append(placed, segtree.Placed{Ext: e, Ref: chunk.Ref{Offset: start}})
		start += e.Length
	}
	split := segtree.SplitPlaced(placed, h.tree.Geo.Page)
	exts := make([]extent.Extent, len(split))
	for i, p := range split {
		exts[i] = p.Ext
	}
	b, err := h.tree.NewBuilder(tk.Version, exts, tk.Borrows)
	if err != nil {
		h.t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, p := range split {
		wg.Add(1)
		go func(i int, p segtree.Placed) {
			defer wg.Done()
			// The piece's bytes live at v.Buf[p.Ref.Offset...] (the
			// running offset stashed above).
			data := v.Buf[p.Ref.Offset : p.Ref.Offset+p.Ext.Length]
			key := chunk.Key{Blob: h.blob, Version: tk.Version, Index: uint32(i)}
			if err := h.chunks.Put(key, data); err != nil {
				h.t.Error(err)
				return
			}
			b.SetPiece(i, chunk.Ref{Key: key, Offset: 0, Length: p.Ext.Length})
		}(i, p)
	}
	wg.Wait()
	root, err := b.Finish()
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.mgr.Complete(h.blob, tk.Version, root); err != nil {
		h.t.Fatal(err)
	}
	return tk.Version
}

// TestBuilderMatchesBuild checks the pipelined builder produces trees
// that read back identically to Build's, across randomized overlapping
// writes interleaving both paths.
func TestBuilderMatchesBuild(t *testing.T) {
	geo := segtree.Geometry{Capacity: 1 << 14, Page: 1 << 10}
	h := newHarness(t, geo)
	ref := newHarness(t, geo)

	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 30; round++ {
		n := 1 + rng.Intn(3)
		var l extent.List
		for i := 0; i < n; i++ {
			length := int64(1 + rng.Intn(3000))
			off := rng.Int63n(geo.Capacity - length + 1)
			l = append(l, extent.Extent{Offset: off, Length: length})
		}
		l = l.Normalize()
		fill := byte(round + 1)
		v := vec(t, l, fill)
		var hv, rv uint64
		if round%2 == 0 {
			hv = h.writePipelined(v)
		} else {
			hv = h.write(v)
		}
		rv = ref.write(v)

		q := extent.List{{Offset: 0, Length: geo.Capacity}}
		if got, want := h.read(hv, q), ref.read(rv, q); !bytes.Equal(got, want) {
			t.Fatalf("round %d: pipelined tree diverges from Build", round)
		}
	}
}

// gatedPuts is a store with the list put, which it holds at a gate.
type gatedPuts struct {
	segtree.NodeStore
	open          chan struct{}
	lists, stored atomic.Int64
}

func (g *gatedPuts) PutNodes(blob uint64, keys []segtree.NodeKey, nodes []*segtree.Node) error {
	g.lists.Add(1)
	<-g.open
	for i, key := range keys {
		if err := g.NodeStore.PutNode(blob, key, nodes[i]); err != nil {
			return err
		}
		g.stored.Add(1)
	}
	return nil
}

func (g *gatedPuts) GetNodes(blob uint64, keys []segtree.NodeKey, try bool) ([]*segtree.Node, error) {
	return nil, errors.New("gatedPuts: no list get")
}

// TestBuilderDirty pins the retirement contract: a builder that stored
// any node reports dirty (inner nodes make it dirty before any piece
// lands on multi-page writes), and a fresh builder over a single page
// stays clean until its first piece.
func TestBuilderDirty(t *testing.T) {
	geo := segtree.Geometry{Capacity: 1 << 14, Page: 1 << 10}
	h := newHarness(t, geo)

	// Multi-page write: the inner nodes go out at once, as one list put —
	// dirty at birth, before the first of them has left.
	gate := &gatedPuts{NodeStore: h.tree.Store, open: make(chan struct{})}
	h.tree.Store = gate
	tk, err := h.mgr.AssignTicket(h.blob, extent.List{{Offset: 0, Length: 3000}})
	if err != nil {
		t.Fatal(err)
	}
	exts := []extent.Extent{{Offset: 0, Length: 1024}, {Offset: 1024, Length: 1024}, {Offset: 2048, Length: 952}}
	b, err := h.tree.NewBuilder(tk.Version, exts, tk.Borrows)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Dirty() || gate.stored.Load() != 0 {
		t.Fatalf("multi-page builder with %d nodes stored: dirty = %v, want dirty at birth (inner nodes in flight)", gate.stored.Load(), b.Dirty())
	}
	close(gate.open)
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
	if lists, stored := gate.lists.Load(), gate.stored.Load(); lists != 1 || stored != 5 {
		t.Fatalf("the inner nodes went out as %d list puts of %d nodes, want 1 of 5", lists, stored)
	}
	if err := h.mgr.Abort(h.blob, tk.Version); err != nil {
		t.Fatal(err)
	}

	// Single-page blob (capacity == page): no inner nodes exist at all
	// → clean until a piece lands.
	h = newHarness(t, segtree.Geometry{Capacity: 1 << 10, Page: 1 << 10})
	tk2, err := h.mgr.AssignTicket(h.blob, extent.List{{Offset: 0, Length: 512}})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := h.tree.NewBuilder(tk2.Version, []extent.Extent{{Offset: 0, Length: 512}}, tk2.Borrows)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Dirty() {
		t.Fatal("single-page builder must be clean before any piece")
	}
	key := chunk.Key{Blob: h.blob, Version: tk2.Version, Index: 0}
	if err := h.chunks.Put(key, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	b2.SetPiece(0, chunk.Ref{Key: key, Length: 512})
	if !b2.Dirty() {
		t.Fatal("builder must be dirty after a leaf store started")
	}
	if _, err := b2.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := h.mgr.Abort(h.blob, tk2.Version); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderValidation pins the planning-time contract checks.
func TestBuilderValidation(t *testing.T) {
	geo := segtree.Geometry{Capacity: 1 << 12, Page: 1 << 10}
	h := newHarness(t, geo)
	for _, bad := range [][]extent.Extent{
		{},
		{{Offset: -1, Length: 10}},
		{{Offset: 0, Length: geo.Capacity + 1}},
		{{Offset: 1000, Length: 100}}, // crosses page boundary
		{{Offset: 512, Length: 10}, {Offset: 0, Length: 10}}, // unsorted
	} {
		if _, err := h.tree.NewBuilder(1, bad, nil); err == nil {
			t.Errorf("NewBuilder(%v): want error", bad)
		}
	}
}
