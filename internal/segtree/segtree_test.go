package segtree_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// harness bundles a tree with a chunk store and version manager so
// tests can exercise full write/read cycles at the metadata level.
type harness struct {
	t      testing.TB
	tree   *segtree.Tree
	chunks *chunk.MemStore
	mgr    *vmanager.Manager
	blob   uint64
}

func newHarness(t testing.TB, geo segtree.Geometry) *harness {
	t.Helper()
	mgr := vmanager.New(iosim.CostModel{})
	const blob = 1
	if err := mgr.CreateBlob(blob, geo); err != nil {
		t.Fatal(err)
	}
	return &harness{
		t:      t,
		tree:   &segtree.Tree{Blob: blob, Geo: geo, Store: metadata.NewStore(4, iosim.CostModel{})},
		chunks: chunk.NewMemStore(nil),
		mgr:    mgr,
		blob:   blob,
	}
}

// write performs a complete versioned write of the vector and returns
// the assigned version.
func (h *harness) write(v extent.Vec) uint64 {
	h.t.Helper()
	tk, err := h.mgr.AssignTicket(h.blob, v.Extents)
	if err != nil {
		h.t.Fatal(err)
	}
	var placed []segtree.Placed
	idx := uint32(0)
	var start int64
	for _, e := range v.Extents {
		data := v.Buf[start : start+e.Length]
		start += e.Length
		key := chunk.Key{Blob: h.blob, Version: tk.Version, Index: idx}
		idx++
		if err := h.chunks.Put(key, data); err != nil {
			h.t.Fatal(err)
		}
		placed = append(placed, segtree.Placed{
			Ext: e,
			Ref: chunk.Ref{Key: key, Offset: 0, Length: e.Length},
		})
	}
	placed = splitPlaced(placed, h.tree.Geo.Page)
	root, err := h.tree.Build(tk.Version, placed, tk.Borrows)
	if err != nil {
		h.t.Fatal(err)
	}
	if err := h.mgr.Complete(h.blob, tk.Version, root); err != nil {
		h.t.Fatal(err)
	}
	return tk.Version
}

// place stores chunks for the given extents (filled with fill) under
// the version and returns page-split placed pieces, without building
// metadata — used by tests that drive Build directly.
func (h *harness) place(version uint64, l extent.List, fill byte) []segtree.Placed {
	h.t.Helper()
	var placed []segtree.Placed
	for i, e := range l {
		buf := make([]byte, e.Length)
		for j := range buf {
			buf[j] = fill
		}
		key := chunk.Key{Blob: h.blob, Version: version, Index: uint32(i)}
		if err := h.chunks.Put(key, buf); err != nil {
			h.t.Fatal(err)
		}
		placed = append(placed, segtree.Placed{
			Ext: e,
			Ref: chunk.Ref{Key: key, Offset: 0, Length: e.Length},
		})
	}
	return splitPlaced(placed, h.tree.Geo.Page)
}

// read materializes the requested extents at the given version.
func (h *harness) read(version uint64, q extent.List) []byte {
	h.t.Helper()
	info, err := h.mgr.Snapshot(h.blob, version)
	if err != nil {
		h.t.Fatal(err)
	}
	frags, holes, err := h.tree.Resolve(info.Root, q)
	if err != nil {
		h.t.Fatal(err)
	}
	image := make([]byte, q.Bounding().End())
	for _, f := range frags {
		data, err := h.chunks.Get(f.Ref.Key, f.Ref.Offset, f.Ref.Length)
		if err != nil {
			h.t.Fatal(err)
		}
		copy(image[f.Ext.Offset:], data)
	}
	_ = holes // holes read as zero, already the case in image
	out := make([]byte, q.TotalLength())
	var start int64
	for _, e := range q {
		copy(out[start:], image[e.Offset:e.End()])
		start += e.Length
	}
	return out
}

func vec(t *testing.T, l extent.List, fill byte) extent.Vec {
	t.Helper()
	buf := make([]byte, l.TotalLength())
	for i := range buf {
		buf[i] = fill
	}
	v, err := extent.NewVec(l, buf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGeometryValidate(t *testing.T) {
	good := []segtree.Geometry{
		{Capacity: 64, Page: 64},
		{Capacity: 1024, Page: 64},
		{Capacity: 1 << 30, Page: 4096},
	}
	for _, g := range good {
		if err := g.Validate(); err != nil {
			t.Fatalf("%+v: %v", g, err)
		}
	}
	bad := []segtree.Geometry{
		{Capacity: 0, Page: 64},
		{Capacity: 64, Page: 0},
		{Capacity: 192, Page: 64}, // 3 pages: not a power of two
		{Capacity: 100, Page: 64},
		{Capacity: 32, Page: 64},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("%+v must fail validation", g)
		}
	}
}

func TestBorrowsGeometry(t *testing.T) {
	g := segtree.Geometry{Capacity: 256, Page: 64} // 4 pages
	// Touch only page 1 ([64,128)).
	bs := g.Borrows(extent.List{{Offset: 64, Length: 64}})
	want := map[extent.Extent]bool{
		{Offset: 0, Length: 64}:    true, // untouched sibling leaf
		{Offset: 64, Length: 64}:   true, // the touched leaf itself
		{Offset: 128, Length: 128}: true, // untouched right subtree
	}
	if len(bs) != len(want) {
		t.Fatalf("Borrows = %v", bs)
	}
	for _, r := range bs {
		if !want[r] {
			t.Fatalf("unexpected borrow range %v", r)
		}
	}
	if got := g.Borrows(nil); got != nil {
		t.Fatalf("Borrows(empty) = %v", got)
	}
}

func TestWriteReadSingleExtent(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 1024, Page: 64})
	v := h.write(vec(t, extent.List{{Offset: 100, Length: 200}}, 0xAB))
	got := h.read(v, extent.List{{Offset: 100, Length: 200}})
	for i, b := range got {
		if b != 0xAB {
			t.Fatalf("byte %d = %x", i, b)
		}
	}
}

func TestReadHolesAreZero(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 1024, Page: 64})
	v := h.write(vec(t, extent.List{{Offset: 128, Length: 64}}, 0xFF))
	got := h.read(v, extent.List{{Offset: 0, Length: 256}})
	for i := 0; i < 128; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %x", i, got[i])
		}
	}
	for i := 128; i < 192; i++ {
		if got[i] != 0xFF {
			t.Fatalf("data byte %d = %x", i, got[i])
		}
	}
	for i := 192; i < 256; i++ {
		if got[i] != 0 {
			t.Fatalf("hole byte %d = %x", i, got[i])
		}
	}
}

func TestWriteNonContiguous(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 1024, Page: 64})
	l := extent.List{{Offset: 10, Length: 20}, {Offset: 300, Length: 40}, {Offset: 900, Length: 24}}
	v := h.write(vec(t, l, 0x7E))
	got := h.read(v, l)
	for i, b := range got {
		if b != 0x7E {
			t.Fatalf("byte %d = %x", i, b)
		}
	}
	// The gaps must be holes.
	gap := h.read(v, extent.List{{Offset: 30, Length: 10}})
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("gap byte %d = %x", i, b)
		}
	}
}

func TestSnapshotsAreImmutable(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 1024, Page: 64})
	v1 := h.write(vec(t, extent.List{{Offset: 0, Length: 64}}, 1))
	v2 := h.write(vec(t, extent.List{{Offset: 0, Length: 64}}, 2))
	v3 := h.write(vec(t, extent.List{{Offset: 32, Length: 64}}, 3))
	if got := h.read(v1, extent.List{{Offset: 0, Length: 64}}); got[0] != 1 || got[63] != 1 {
		t.Fatalf("v1 = %v...", got[:4])
	}
	if got := h.read(v2, extent.List{{Offset: 0, Length: 64}}); got[0] != 2 {
		t.Fatalf("v2 = %v...", got[:4])
	}
	got := h.read(v3, extent.List{{Offset: 0, Length: 128}})
	for i := 0; i < 32; i++ {
		if got[i] != 2 {
			t.Fatalf("v3 byte %d = %d, want 2 (from v2)", i, got[i])
		}
	}
	for i := 32; i < 96; i++ {
		if got[i] != 3 {
			t.Fatalf("v3 byte %d = %d, want 3", i, got[i])
		}
	}
	for i := 96; i < 128; i++ {
		if got[i] != 0 {
			t.Fatalf("v3 byte %d = %d, want 0", i, got[i])
		}
	}
}

func TestPartialPageOverwrite(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 256, Page: 64})
	h.write(vec(t, extent.List{{Offset: 0, Length: 64}}, 0x11))
	v2 := h.write(vec(t, extent.List{{Offset: 16, Length: 16}}, 0x22))
	got := h.read(v2, extent.List{{Offset: 0, Length: 64}})
	for i := 0; i < 64; i++ {
		want := byte(0x11)
		if i >= 16 && i < 32 {
			want = 0x22
		}
		if got[i] != want {
			t.Fatalf("byte %d = %x, want %x", i, got[i], want)
		}
	}
}

func TestPageCrossingWrite(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 256, Page: 64})
	// One extent spanning three pages.
	v := h.write(vec(t, extent.List{{Offset: 32, Length: 160}}, 0x5A))
	got := h.read(v, extent.List{{Offset: 0, Length: 256}})
	for i := 0; i < 256; i++ {
		want := byte(0)
		if i >= 32 && i < 192 {
			want = 0x5A
		}
		if got[i] != want {
			t.Fatalf("byte %d = %x, want %x", i, got[i], want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 256, Page: 64})
	tree := h.tree
	if _, err := tree.Build(1, nil, nil); err == nil {
		t.Fatal("empty build must fail")
	}
	// Piece crossing a page boundary.
	bad := []segtree.Placed{{Ext: extent.Extent{Offset: 60, Length: 10}, Ref: chunk.Ref{Length: 10}}}
	if _, err := tree.Build(1, bad, nil); err == nil {
		t.Fatal("page-crossing piece must fail")
	}
	// Out of range.
	far := []segtree.Placed{{Ext: extent.Extent{Offset: 300, Length: 10}, Ref: chunk.Ref{Length: 10}}}
	if _, err := tree.Build(1, far, nil); !errors.Is(err, segtree.ErrOutOfRange) {
		t.Fatalf("out-of-range err = %v", err)
	}
	// Unsorted pieces.
	unsorted := []segtree.Placed{
		{Ext: extent.Extent{Offset: 64, Length: 8}},
		{Ext: extent.Extent{Offset: 0, Length: 8}},
	}
	if _, err := tree.Build(1, unsorted, nil); err == nil {
		t.Fatal("unsorted pieces must fail")
	}
}

// TestBuilderValidation pins the rest of the tree builder's input
// contract: no piece before offset zero or longer than the capacity, and
// no two pieces overlapping inside a page.
func TestBuilderValidation(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 256, Page: 64})
	piece := func(off, length int64) segtree.Placed {
		return segtree.Placed{Ext: extent.Extent{Offset: off, Length: length}, Ref: chunk.Ref{Length: length}}
	}
	for name, tc := range map[string]struct {
		pieces     []segtree.Placed
		outOfRange bool
	}{
		"negative offset":       {pieces: []segtree.Placed{piece(-1, 10)}, outOfRange: true},
		"longer than capacity":  {pieces: []segtree.Placed{piece(0, 257)}, outOfRange: true},
		"overlapping in a page": {pieces: []segtree.Placed{piece(0, 16), piece(8, 16)}},
	} {
		_, err := h.tree.Build(1, tc.pieces, nil)
		if err == nil {
			t.Errorf("%s: Build accepted %v", name, tc.pieces)
		} else if tc.outOfRange && !errors.Is(err, segtree.ErrOutOfRange) {
			t.Errorf("%s: err = %v, want ErrOutOfRange", name, err)
		}
	}
}

func TestResolveValidation(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 256, Page: 64})
	if _, _, err := h.tree.Resolve(segtree.NodeKey{}, extent.List{{Offset: 300, Length: 10}}); !errors.Is(err, segtree.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	frags, holes, err := h.tree.Resolve(segtree.NodeKey{}, extent.List{{Offset: 0, Length: 10}})
	if err != nil || len(frags) != 0 || !holes.Equal(extent.List{{Offset: 0, Length: 10}}) {
		t.Fatalf("zero root resolve = %v %v %v", frags, holes, err)
	}
	frags, holes, err = h.tree.Resolve(segtree.NodeKey{}, nil)
	if err != nil || frags != nil || holes != nil {
		t.Fatalf("empty query = %v %v %v", frags, holes, err)
	}
}

// splitPlaced splits placed pieces at page boundaries, adjusting chunk
// reference offsets so each output piece stays within one page.
func splitPlaced(pieces []segtree.Placed, page int64) []segtree.Placed {
	if page <= 0 {
		return pieces
	}
	var out []segtree.Placed
	for _, p := range pieces {
		off := p.Ext.Offset
		refOff := p.Ref.Offset
		remaining := p.Ext.Length
		for remaining > 0 {
			boundary := (off/page + 1) * page
			n := remaining
			if boundary-off < n {
				n = boundary - off
			}
			out = append(out, segtree.Placed{
				Ext: extent.Extent{Offset: off, Length: n},
				Ref: chunk.Ref{Key: p.Ref.Key, Offset: refOff, Length: n},
			})
			off += n
			refOff += n
			remaining -= n
		}
	}
	return out
}

func TestSplitPlaced(t *testing.T) {
	in := []segtree.Placed{{
		Ext: extent.Extent{Offset: 50, Length: 100},
		Ref: chunk.Ref{Key: chunk.Key{Blob: 1}, Offset: 8, Length: 100},
	}}
	out := splitPlaced(in, 64)
	if len(out) != 3 {
		t.Fatalf("split into %d pieces, want 3: %v", len(out), out)
	}
	wantExt := []extent.Extent{{Offset: 50, Length: 14}, {Offset: 64, Length: 64}, {Offset: 128, Length: 22}}
	wantRefOff := []int64{8, 22, 86}
	for i := range out {
		if out[i].Ext != wantExt[i] {
			t.Fatalf("piece %d ext = %v, want %v", i, out[i].Ext, wantExt[i])
		}
		if out[i].Ref.Offset != wantRefOff[i] || out[i].Ref.Length != wantExt[i].Length {
			t.Fatalf("piece %d ref = %+v", i, out[i].Ref)
		}
	}
}

// TestPropRandomWritesMatchOracle performs a random sequence of
// versioned writes and cross-checks every snapshot against a brute-force
// byte-array oracle.
func TestPropRandomWritesMatchOracle(t *testing.T) {
	const space = 512
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := newHarness(t, segtree.Geometry{Capacity: space, Page: 32})
		oracle := make([][]byte, 1, 12)
		oracle[0] = make([]byte, space)
		for round := 1; round <= 10; round++ {
			// Random non-contiguous extent list.
			var l extent.List
			n := r.Intn(4) + 1
			for i := 0; i < n; i++ {
				off := int64(r.Intn(space - 1))
				length := int64(r.Intn(space-int(off)-1) + 1)
				l = append(l, extent.Extent{Offset: off, Length: length})
			}
			l = l.Normalize()
			buf := make([]byte, l.TotalLength())
			for i := range buf {
				buf[i] = byte(round)
			}
			v, err := extent.NewVec(l, buf)
			if err != nil {
				return false
			}
			h.write(v)
			img := make([]byte, space)
			copy(img, oracle[round-1])
			v.ScatterInto(img, 0)
			oracle = append(oracle, img)
		}
		// Check every version in full.
		for ver := 1; ver <= 10; ver++ {
			got := h.read(uint64(ver), extent.List{{Offset: 0, Length: space}})
			for i := range got {
				if got[i] != oracle[ver][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMetadataSharingAcrossVersions verifies shadowing: an untouched
// subtree creates no new nodes.
func TestMetadataSharingAcrossVersions(t *testing.T) {
	h := newHarness(t, segtree.Geometry{Capacity: 1024, Page: 64}) // 16 pages, depth 5
	h.write(vec(t, extent.List{{Offset: 0, Length: 1024}}, 1))
	store := h.tree.Store.(*metadata.Store)
	full := store.Count()
	// A one-page write must add at most depth+1 nodes (path only).
	h.write(vec(t, extent.List{{Offset: 0, Length: 64}}, 2))
	added := store.Count() - full
	if added > 5 {
		t.Fatalf("one-page write created %d nodes, want <= 5 (path sharing broken)", added)
	}
}
