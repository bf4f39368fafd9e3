package segtree_test

import (
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/segtree"
)

// writePaged performs a versioned write that stores one chunk per
// page-split piece, mirroring the real write path (blob.storeChunks):
// ExclusiveChunks requires the chunk-per-page invariant, which the
// generic harness write (one chunk per extent, splitPlaced across
// pages) does not maintain.
func (h *harness) writePaged(v extent.Vec) uint64 {
	h.t.Helper()
	tk, err := h.mgr.AssignTicket(h.blob, v.Extents)
	if err != nil {
		h.t.Fatal(err)
	}
	page := h.tree.Geo.Page
	var placed []segtree.Placed
	idx := uint32(0)
	var start int64
	for _, e := range v.Extents {
		data := v.Buf[start : start+e.Length]
		start += e.Length
		off := e.Offset
		for len(data) > 0 {
			boundary := (off/page + 1) * page
			n := int64(len(data))
			if boundary-off < n {
				n = boundary - off
			}
			key := chunk.Key{Blob: h.blob, Version: tk.Version, Index: idx}
			idx++
			if err := h.chunks.Put(key, data[:n]); err != nil {
				h.t.Fatal(err)
			}
			placed = append(placed, segtree.Placed{
				Ext: extent.Extent{Offset: off, Length: n},
				Ref: chunk.Ref{Key: key, Offset: 0, Length: n},
			})
			off += n
			data = data[n:]
		}
	}
	root, err := h.tree.Build(tk.Version, placed, tk.Borrows)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.mgr.Complete(h.blob, tk.Version, root); err != nil {
		h.t.Fatal(err)
	}
	return tk.Version
}

// reachable returns the distinct chunk keys a reader can observe at
// the version — the brute-force reference set ExclusiveChunks must
// agree with.
func (h *harness) reachable(version uint64) map[chunk.Key]bool {
	h.t.Helper()
	info, err := h.mgr.Snapshot(h.blob, version)
	if err != nil {
		h.t.Fatal(err)
	}
	out := make(map[chunk.Key]bool)
	if info.Root.IsZero() {
		return out
	}
	frags, _, err := h.tree.Resolve(info.Root, extent.List{{Offset: 0, Length: h.tree.Geo.Capacity}})
	if err != nil {
		h.t.Fatal(err)
	}
	for _, f := range frags {
		out[f.Ref.Key] = true
	}
	return out
}

func (h *harness) root(version uint64) segtree.NodeKey {
	h.t.Helper()
	info, err := h.mgr.Snapshot(h.blob, version)
	if err != nil {
		h.t.Fatal(err)
	}
	return info.Root
}

func TestExclusiveChunksOverwrittenVsShared(t *testing.T) {
	geo := segtree.Geometry{Capacity: 8 << 10, Page: 1 << 10}
	h := newHarness(t, geo)
	// v1 writes pages 0-3; v2 fully overwrites pages 0-1 and leaves
	// 2-3 visible.
	v1 := h.writePaged(vec(t, extent.List{{Offset: 0, Length: 4 << 10}}, 0x11))
	v2 := h.writePaged(vec(t, extent.List{{Offset: 0, Length: 2 << 10}}, 0x22))

	keys, err := h.tree.ExclusiveChunks(h.root(v1), []segtree.NodeKey{h.root(v2)})
	if err != nil {
		t.Fatal(err)
	}
	// v1's chunk pieces for pages 0-1 are exclusive; pages 2-3 are
	// still reachable from v2 (borrowed subtree or chain).
	v2Reach := h.reachable(v2)
	if len(keys) == 0 {
		t.Fatal("no exclusive chunks for a half-overwritten version")
	}
	for _, k := range keys {
		if k.Version != v1 {
			t.Fatalf("exclusive key %s not written by v1", k)
		}
		if v2Reach[k] {
			t.Fatalf("exclusive key %s still reachable from v2", k)
		}
	}
	// Every v1 key NOT exclusive must be reachable from v2.
	excl := make(map[chunk.Key]bool, len(keys))
	for _, k := range keys {
		excl[k] = true
	}
	for k := range h.reachable(v1) {
		if !excl[k] && !v2Reach[k] {
			t.Fatalf("key %s neither exclusive nor reachable from keeper", k)
		}
	}
}

func TestExclusiveChunksSharedRootFetchesNothing(t *testing.T) {
	geo := segtree.Geometry{Capacity: 4 << 10, Page: 1 << 10}
	h := newHarness(t, geo)
	v1 := h.writePaged(vec(t, extent.List{{Offset: 0, Length: 4 << 10}}, 0x33))
	root := h.root(v1)
	count := &probeStore{NodeStore: h.tree.Store}
	tree := &segtree.Tree{Blob: h.tree.Blob, Geo: geo, Store: count}
	// Dropping a version whose root a keeper shares (an aborted
	// version publishes its predecessor's root) must do zero metadata
	// I/O: the walk prunes at the shared root.
	keys, err := tree.ExclusiveChunks(root, []segtree.NodeKey{root})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 || count.gets.Load() != 0 {
		t.Fatalf("shared-root walk: %d keys, %d fetches; want 0, 0", len(keys), count.gets.Load())
	}
}

// TestPropExclusiveChunksMatchBruteForce: for random overlapping write
// histories, ExclusiveChunks(drop, others) must equal the brute-force
// set difference reachable(drop) \ union(reachable(others)) for every
// choice of dropped version.
func TestPropExclusiveChunksMatchBruteForce(t *testing.T) {
	geo := segtree.Geometry{Capacity: 16 << 10, Page: 1 << 10}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		h := newHarness(t, geo)
		n := 3 + rng.Intn(6)
		var versions []uint64
		for i := 0; i < n; i++ {
			var l extent.List
			for e := 0; e < 1+rng.Intn(3); e++ {
				off := rng.Int63n(geo.Capacity - 1)
				length := 1 + rng.Int63n(3<<10)
				if off+length > geo.Capacity {
					length = geo.Capacity - off
				}
				l = append(l, extent.Extent{Offset: off, Length: length})
			}
			l = l.Normalize()
			versions = append(versions, h.writePaged(vec(t, l, byte(i+1))))
		}
		for _, drop := range versions {
			var keep []segtree.NodeKey
			union := make(map[chunk.Key]bool)
			for _, v := range versions {
				if v == drop {
					continue
				}
				if r := h.root(v); !r.IsZero() {
					keep = append(keep, r)
				}
				for k := range h.reachable(v) {
					union[k] = true
				}
			}
			got, err := h.tree.ExclusiveChunks(h.root(drop), keep)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[chunk.Key]bool)
			for k := range h.reachable(drop) {
				if !union[k] {
					want[k] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d drop v%d: got %d exclusive keys, want %d (%v vs %v)",
					trial, drop, len(got), len(want), got, want)
			}
			for _, k := range got {
				if !want[k] {
					t.Fatalf("trial %d drop v%d: key %s exclusive but reachable from a keeper", trial, drop, k)
				}
			}
		}
	}
}
