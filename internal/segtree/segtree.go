// Package segtree implements the versioned segment tree that stores blob
// metadata, following BlobSeer's shadowing design (Rodeh-style
// copy-on-write B-tree adapted to a static binary partition of the blob
// address space).
//
// The blob address space [0, Capacity) is covered by a complete binary
// tree: every inner node covers a power-of-two multiple of the page
// size and splits it in half; every leaf covers exactly one page. A
// node is immutable and keyed by (version, offset, size): a write with
// ticket v creates new nodes only along the paths from the root to the
// pages it touches, and *borrows* every untouched sibling subtree from
// the most recent earlier version that touched it. Snapshots therefore
// share all unmodified metadata, which is what makes per-write
// snapshots affordable.
//
// Leaves hold fragment lists — (byte range → chunk reference) overlays —
// so partially overwritten pages never require read-modify-write of
// data: the new leaf either merges the surviving fragments of its
// predecessor (when the predecessor's metadata is already available) or
// records a back-pointer chain that readers resolve newest-first. This
// is the mechanism that lets concurrent writers of overlapping
// non-contiguous regions proceed with zero synchronization on the data
// path, as required by the paper.
package segtree

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/chunk"
	"repro/internal/extent"
)

// NodeKey identifies one immutable metadata node.
type NodeKey struct {
	Version uint64
	Offset  int64
	Size    int64
}

// IsZero reports whether the key is the hole sentinel (no node).
func (k NodeKey) IsZero() bool { return k.Version == 0 }

// Range returns the byte range the node covers.
func (k NodeKey) Range() extent.Extent { return extent.Extent{Offset: k.Offset, Length: k.Size} }

func (k NodeKey) String() string {
	return fmt.Sprintf("v%d[%d,%d)", k.Version, k.Offset, k.Offset+k.Size)
}

// Fragment maps an absolute byte range of the blob to a sub-range of an
// immutable chunk.
type Fragment struct {
	Ext extent.Extent
	Ref chunk.Ref
}

// Node is one immutable metadata node. Inner nodes carry child keys;
// leaves carry this version's fragments and an optional back-pointer to
// the predecessor leaf (non-zero only when the predecessor could not be
// merged at build time).
type Node struct {
	Leaf  bool
	Left  NodeKey // inner only
	Right NodeKey // inner only

	Frags []Fragment // leaf only; sorted, non-overlapping
	Prev  NodeKey    // leaf only; chain to predecessor leaf
}

// NodeStore is the metadata repository the tree reads and writes.
// Implementations live in internal/metadata.
type NodeStore interface {
	// PutNode stores an immutable node. The store may keep n as the
	// stored node and hand it to later gets, so the caller hands it
	// over: no caller may modify a node after putting it or getting it.
	PutNode(blob uint64, key NodeKey, n *Node) error
	// GetNode returns a node or an error if it is missing. The node may
	// be shared with the store and with every other caller.
	GetNode(blob uint64, key NodeKey) (*Node, error)
	// TryGetNode returns (node, true) if present, (nil, false) if the
	// node is not (yet) stored. Used for the leaf-flattening
	// optimization; it must never block.
	TryGetNode(blob uint64, key NodeKey) (*Node, bool, error)
}

// Placed pairs an absolute byte range of the write with the chunk
// sub-range that now holds its data.
type Placed struct {
	Ext extent.Extent
	Ref chunk.Ref
}

// Geometry fixes the shape of a blob's tree.
type Geometry struct {
	Capacity int64 // total address space covered by the root; power-of-two multiple of Page
	Page     int64 // leaf size
}

// Validate checks the geometry invariants.
func (g Geometry) Validate() error {
	if g.Page <= 0 {
		return fmt.Errorf("segtree: page size %d must be positive", g.Page)
	}
	if g.Capacity < g.Page {
		return fmt.Errorf("segtree: capacity %d smaller than page %d", g.Capacity, g.Page)
	}
	pages := g.Capacity / g.Page
	if g.Capacity%g.Page != 0 || pages&(pages-1) != 0 {
		return fmt.Errorf("segtree: capacity %d must be a power-of-two multiple of page %d", g.Capacity, g.Page)
	}
	return nil
}

// Root returns the range covered by the root node.
// Public through repro.Store.Backend().Blob().Geometry().
func (g Geometry) Root() extent.Extent { return extent.Extent{Offset: 0, Length: g.Capacity} }

// Borrows lists, for a write covering the normalized extent list e,
// every tree range whose *latest prior version* the writer must learn
// from the version manager: all untouched sibling subtrees along the
// write's paths plus every touched leaf (whose predecessor feeds the
// fragment chain). The version manager answers these at ticket time so
// builders never synchronize with concurrent writers.
func (g Geometry) Borrows(e extent.List) []extent.Extent {
	var out []extent.Extent
	var walk func(off, size int64)
	walk = func(off, size int64) {
		r := extent.Extent{Offset: off, Length: size}
		if !e.IntersectsExtent(r) {
			out = append(out, r)
			return
		}
		if size == g.Page {
			out = append(out, r)
			return
		}
		half := size / 2
		walk(off, half)
		walk(off+half, half)
	}
	if len(e) > 0 {
		walk(0, g.Capacity)
	}
	return out
}

// Tree provides the build (write) and resolve (read) operations over one
// blob's metadata. Tree is stateless and safe for concurrent use; all
// shared state lives in the NodeStore.
type Tree struct {
	Blob  uint64
	Geo   Geometry
	Store NodeStore
}

// ErrOutOfRange is returned when a write or read exceeds the capacity.
var ErrOutOfRange = errors.New("segtree: access beyond blob capacity")

// Build writes the metadata for update ticket v consisting of the given
// placed pieces, using borrow answers from the version manager
// (geometry range → latest prior version, 0 meaning never written).
// It returns the new root key. Pieces must be sorted by offset,
// non-overlapping, and must not cross page boundaries (blob.storeChunks
// splits them before storing).
//
// The store sees two list operations: one try-get of the predecessor
// leaves that flattening needs, then one put of every node of the update
// (readers only see the tree after publication, so the nodes need no
// order among themselves). Nothing is put before the try-get succeeds, so
// a build that fails there leaves the ticket to BuildEmpty. A store that
// builds (the framed client), bare or under a NodeCache, is instead
// handed the checked update whole, and runs this same Build where the
// nodes are.
func (t *Tree) Build(v uint64, placed []Placed, borrows map[extent.Extent]uint64) (NodeKey, error) {
	if len(placed) == 0 {
		return NodeKey{}, errors.New("segtree: empty update")
	}
	for i, p := range placed {
		if p.Ext.Offset < 0 || p.Ext.End() > t.Geo.Capacity {
			return NodeKey{}, fmt.Errorf("%w: piece %v", ErrOutOfRange, p.Ext)
		}
		if p.Ext.Offset/t.Geo.Page != (p.Ext.End()-1)/t.Geo.Page {
			return NodeKey{}, fmt.Errorf("segtree: piece %v crosses page boundary", p.Ext)
		}
		if i > 0 && placed[i-1].Ext.End() > p.Ext.Offset {
			return NodeKey{}, fmt.Errorf("segtree: pieces unsorted or overlapping at %d", i)
		}
	}
	if b := t.builder(); b != nil {
		return b.BuildTree(t.Blob, t.Geo, v, placed, borrows)
	}

	// Phase 1: plan the new tree in memory. Inner-node child keys are
	// known immediately (new key if the child is touched, borrow key
	// otherwise), so only leaves need store access: a leaf's entry in
	// nodes starts as this write's fragments alone.
	type partial struct {
		at      int         // index in nodes
		covered extent.List // what the write covers of the page
	}
	var (
		keys     []NodeKey
		nodes    []*Node
		partials []partial // leaves that go over a predecessor
		prevKeys []NodeKey // partials[i]'s predecessor
	)
	var plan func(off, size int64, pieces []Placed) NodeKey
	plan = func(off, size int64, pieces []Placed) NodeKey {
		r := extent.Extent{Offset: off, Length: size}
		if len(pieces) == 0 {
			return borrowed(borrows, r)
		}
		key := NodeKey{Version: v, Offset: off, Size: size}
		if size == t.Geo.Page {
			n, covered, under := startLeaf(r, pieces, borrows[r])
			if !under.IsZero() {
				partials, prevKeys = append(partials, partial{len(nodes), covered}), append(prevKeys, under)
			}
			keys, nodes = append(keys, key), append(nodes, n)
			return key
		}
		half := size / 2
		mid := off + half
		split := 0
		for split < len(pieces) && pieces[split].Ext.Offset < mid {
			split++
		}
		lk := plan(off, half, pieces[:split])
		rk := plan(mid, half, pieces[split:])
		keys, nodes = append(keys, key), append(nodes, &Node{Left: lk, Right: rk})
		return key
	}
	root := plan(0, t.Geo.Capacity, placed)

	// Phase 2: put each partial leaf over its predecessor.
	store := batchOf(t.Store)
	if len(prevKeys) > 0 {
		prevs, err := store.GetNodes(t.Blob, prevKeys, true)
		if err != nil {
			return NodeKey{}, err
		}
		for i, p := range partials {
			nodes[p.at].underlay(prevKeys[i], prevs[i], p.covered)
		}
	}
	// Phase 3: store the update.
	if err := store.PutNodes(t.Blob, keys, nodes); err != nil {
		return NodeKey{}, err
	}
	return root, nil
}

// treeBuilder is what a NodeStore may implement beside the list methods
// (the framed client does): a write's Build as one operation, answered
// where the nodes are. BuildTree runs Build for the tree of geometry geo
// over the store it reaches and returns the root key; none of the nodes it
// stores comes back.
type treeBuilder interface {
	BuildTree(blob uint64, geo Geometry, v uint64, placed []Placed, borrows map[extent.Extent]uint64) (NodeKey, error)
}

// builder is the store Build hands its update to, found as levels finds a
// walker: the store that builds, bare or under a NodeCache; nil when there
// is none, and Build plans and stores the update itself.
func (t *Tree) builder() treeBuilder {
	switch s := t.Store.(type) {
	case *NodeCache:
		return s.builder
	case treeBuilder:
		return s
	}
	return nil
}

// borrowed is the key an update uses for a range it does not touch: the
// latest prior version's node, or the hole sentinel.
func borrowed(borrows map[extent.Extent]uint64, r extent.Extent) NodeKey {
	w := borrows[r]
	if w == 0 {
		return NodeKey{}
	}
	return NodeKey{Version: w, Offset: r.Offset, Size: r.Length}
}

// BuildEmpty writes tombstone metadata for ticket v over the given
// (normalized) extent list: every touched leaf gets an empty overlay
// chained to its predecessor, so the snapshot reads identically to its
// predecessor while still materializing every node that later writers
// may have borrowed by version. This is how a failed write (chunk
// store error after ticket assignment) retires its ticket without
// stalling publication or leaving dangling references. The store sees
// one put of every node.
func (t *Tree) BuildEmpty(v uint64, touched extent.List, borrows map[extent.Extent]uint64) (NodeKey, error) {
	touched = touched.Normalize()
	if len(touched) == 0 {
		return NodeKey{}, errors.New("segtree: empty tombstone")
	}
	if b := touched.Bounding(); b.Offset < 0 || b.End() > t.Geo.Capacity {
		return NodeKey{}, fmt.Errorf("%w: tombstone %v", ErrOutOfRange, b)
	}
	var (
		keys  []NodeKey
		nodes []*Node
	)
	var plan func(off, size int64) NodeKey
	plan = func(off, size int64) NodeKey {
		r := extent.Extent{Offset: off, Length: size}
		if !touched.IntersectsExtent(r) {
			return borrowed(borrows, r)
		}
		key := NodeKey{Version: v, Offset: off, Size: size}
		n := &Node{Leaf: true, Prev: borrowed(borrows, r)}
		if size != t.Geo.Page {
			half := size / 2
			n = &Node{Left: plan(off, half), Right: plan(off+half, half)}
		}
		keys, nodes = append(keys, key), append(nodes, n)
		return key
	}
	root := plan(0, t.Geo.Capacity)
	if err := batchOf(t.Store).PutNodes(t.Blob, keys, nodes); err != nil {
		return NodeKey{}, err
	}
	return root, nil
}

// startLeaf begins the new leaf for page r: this write's fragments. When
// they leave part of a page written before (by prevVersion) uncovered the
// leaf is not finished: under names the predecessor leaf it goes over and
// covered what the write covers of the page, for underlay.
func startLeaf(r extent.Extent, pieces []Placed, prevVersion uint64) (n *Node, covered extent.List, under NodeKey) {
	frags := make([]Fragment, 0, len(pieces))
	covered = make(extent.List, 0, len(pieces))
	for _, p := range pieces {
		frags = append(frags, Fragment{Ext: p.Ext, Ref: p.Ref})
		covered = append(covered, p.Ext)
	}
	covered = covered.Normalize()
	n = &Node{Leaf: true, Frags: frags}
	if prevVersion == 0 {
		return n, nil, NodeKey{} // first write to this page
	}
	if len(covered) == 1 && covered[0] == r {
		return n, nil, NodeKey{} // page fully overwritten; predecessor invisible
	}
	return n, covered, NodeKey{Version: prevVersion, Offset: r.Offset, Size: r.Length}
}

// underlay finishes a leaf from startLeaf over its predecessor: merged
// with the predecessor's surviving fragments when that leaf is flat and
// already stored (the flattening optimization); chained via Prev when it
// is missing — prev nil, still in flight — or itself chained, for readers
// to resolve newest-first.
func (n *Node) underlay(prevKey NodeKey, prev *Node, covered extent.List) {
	if prev == nil || !prev.Prev.IsZero() {
		n.Prev = prevKey
		return
	}
	n.Frags = overlayFragments(prev.Frags, n.Frags, covered)
}

// overlayFragments merges old fragments under new ones: every byte of
// newCovered comes from newFrags, everything else survives from old.
// The result is sorted and non-overlapping.
func overlayFragments(old, newFrags []Fragment, newCovered extent.List) []Fragment {
	out := make([]Fragment, 0, len(old)+len(newFrags))
	for _, f := range old {
		surviving := extent.List{f.Ext}.Subtract(newCovered)
		for _, s := range surviving {
			out = append(out, f.clip(s))
		}
	}
	out = append(out, newFrags...)
	sortFragments(out)
	return out
}

// clip returns the part of f that holds want, a sub-range of f.Ext.
func (f Fragment) clip(want extent.Extent) Fragment {
	return Fragment{
		Ext: want,
		Ref: chunk.Ref{
			Key:    f.Ref.Key,
			Offset: f.Ref.Offset + (want.Offset - f.Ext.Offset),
			Length: want.Length,
		},
	}
}

// sortFragments orders disjoint fragments by offset; fragments that
// arrive in order, as most do, are left alone.
func sortFragments(fs []Fragment) {
	byOffset := func(a, b Fragment) int { return cmp.Compare(a.Ext.Offset, b.Ext.Offset) }
	if !slices.IsSortedFunc(fs, byOffset) {
		slices.SortFunc(fs, byOffset)
	}
}

// Resolve walks the tree from root and maps every requested byte to the
// chunk fragment holding it at that snapshot. Bytes never written are
// returned in holes (and read as zero). The walk is level-synchronous
// (Walk): a store sees one list get per level of the tree — every node of
// the level the query reaches — and then one per link of the leaves'
// chains, so a wide read pays tree-depth round trips, not node-count. A
// store that walks itself (the framed client) is instead asked once for
// the whole walk, and again only for what its reply did not reach.
func (t *Tree) Resolve(root NodeKey, query extent.List) (frags []Fragment, holes extent.List, err error) {
	query = query.Normalize()
	for _, q := range query {
		if q.Offset < 0 || q.End() > t.Geo.Capacity {
			return nil, nil, fmt.Errorf("%w: query %v", ErrOutOfRange, q)
		}
	}
	if len(query) == 0 {
		return nil, nil, nil
	}
	if root.IsZero() {
		return nil, query, nil
	}
	holes, err = Walk([]NodeKey{root}, []extent.List{query}, t.levels(), &frags)
	if err != nil {
		return nil, nil, err
	}
	sortFragments(frags)
	return frags, holes.Normalize(), nil
}

// resolve appends to frags, when it is non-nil, what leaf n holds of the
// normalized list q, and returns the rest of q.
func (n *Node) resolve(q extent.List, frags *[]Fragment) extent.List {
	covered := make(extent.List, 0, len(n.Frags))
	for _, f := range n.Frags {
		covered = append(covered, f.Ext)
		if frags == nil {
			continue
		}
		for _, e := range q {
			if want := e.Intersect(f.Ext); !want.Empty() {
				*frags = append(*frags, f.clip(want))
			}
		}
	}
	return q.Subtract(covered)
}
