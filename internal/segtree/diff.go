package segtree

import (
	"fmt"
	"slices"

	"repro/internal/chunk"
	"repro/internal/extent"
)

// Diff computes the byte ranges whose contents may differ between two
// snapshots, as a visualization pipeline wants between timesteps. The
// comparison descent (descend) skips unfetched every subtree both trees
// share (identical keys), so the cost follows the metadata that changed,
// not the blob size. A page both trees hold is compared fragment by
// fragment (diffLeaves); a page one holds alone differs wherever its leaf,
// chain included, holds data, which one Walk of those leaves resolves.
//
// The result is normalized and conservative: every changed byte is
// included; an included byte may compare equal if a writer rewrote it
// with identical data. A node that links as no built tree does, or sits
// off its level, is ErrBadLink.
func (t *Tree) Diff(a, b NodeKey) (extent.List, error) {
	pages, nodes, err := t.descend(a, []NodeKey{b}, false)
	if err != nil {
		return nil, err
	}
	var out extent.List
	var lone []NodeKey // the leaves of pages one tree holds alone
	for _, p := range pages {
		if len(p) == 2 && !p[0].IsZero() {
			out = append(out, diffLeaves(p[0].Range(), nodes[p[0]], nodes[p[1]])...)
		} else {
			lone = append(lone, p[len(p)-1])
		}
	}
	frags, err := t.walkLeaves(lone, nodes)
	if err != nil {
		return nil, err
	}
	for _, f := range frags {
		out = append(out, f.Ext)
	}
	return out.Normalize(), nil
}

// descend walks the tree under one root and those under others in
// lockstep down to the pages where they differ — oneSided, only where the
// first tree reaches — a level per round, each round's nodes fetched as
// Resolve fetches a level (levels: one list get, or a walk of no depth
// from a store that walks) and held to checkLevel, so no store, however
// it was filled, makes it loop or go below a page. A range is dropped once
// its keys show nothing below can differ (entry). It returns, for each
// page left, the first tree's leaf (zero: none) and the others' distinct
// leaves, with every node it fetched.
func (t *Tree) descend(one NodeKey, others []NodeKey, oneSided bool) (pages [][]NodeKey, nodes map[NodeKey]*Node, err error) {
	nodes = make(map[NodeKey]*Node)
	var level [][]NodeKey
	if e := entry(one, others, oneSided); e != nil {
		level = append(level, e)
	}
	fetch := t.levels()
	for len(level) > 0 {
		var keys []NodeKey
		for _, e := range level {
			keys = append(keys, e...)
		}
		keys = slices.DeleteFunc(keys, NodeKey.IsZero)
		got, err := fetch(keys, make([]extent.List, len(keys)))
		if err != nil {
			return nil, nil, err
		}
		for i, k := range keys {
			if err := t.checkLevel(k, got[i]); err != nil {
				return nil, nil, err
			}
			nodes[k] = got[i]
		}
		var below [][]NodeKey
		for _, e := range level {
			if e[len(e)-1].Size == t.Geo.Page { // the last key is never zero
				pages = append(pages, e)
				continue
			}
			for half := range 2 {
				children := make([]NodeKey, len(e))
				for i, k := range e {
					if !k.IsZero() {
						children[i] = [2]NodeKey{nodes[k].Left, nodes[k].Right}[half]
					}
				}
				if c := entry(children[0], children[1:], oneSided); c != nil {
					below = append(below, c)
				}
			}
		}
		level = below
	}
	return pages, nodes, nil
}

// entry is the key list descend follows over one range — one, then the
// distinct non-zero others — or nil when nothing below can differ: one is
// shared with another (identical keys), no tree reaches the range, or the
// descent is oneSided and the first tree does not.
func entry(one NodeKey, others []NodeKey, oneSided bool) []NodeKey {
	e := []NodeKey{one}
	for _, k := range others {
		if !k.IsZero() && !slices.Contains(e, k) {
			e = append(e, k)
		}
	}
	shared := !one.IsZero() && slices.Contains(others, one)
	if shared || one.IsZero() && (oneSided || len(e) == 1) {
		return nil
	}
	return e
}

// checkLevel holds the node stored under k to checkLinks and to the level
// Build puts it at: a leaf at the page size, an inner node above it.
func (t *Tree) checkLevel(k NodeKey, n *Node) error {
	if err := checkLinks(k, n); err != nil {
		return err
	}
	if n.Leaf != (k.Size == t.Geo.Page) || k.Size < t.Geo.Page {
		return fmt.Errorf("%w: node %s (leaf: %v) is off its level for %d-byte pages", ErrBadLink, k, n.Leaf, t.Geo.Page)
	}
	return nil
}

// walkLeaves resolves each of leaves over its whole page in one Walk and
// returns the fragments a reader reaches there, in offset order. The
// leaves, which descend fetched into nodes, are the walk's first round;
// only their chains are fetched.
func (t *Tree) walkLeaves(leaves []NodeKey, nodes map[NodeKey]*Node) ([]Fragment, error) {
	queries, first := make([]extent.List, len(leaves)), make([]*Node, len(leaves))
	for i, k := range leaves {
		queries[i], first[i] = extent.List{k.Range()}, nodes[k]
	}
	fetch := t.levels()
	var frags []Fragment
	_, err := Walk(leaves, queries, func(keys []NodeKey, q []extent.List) ([]*Node, error) {
		if n := first; n != nil {
			first = nil
			return n, nil
		}
		return fetch(keys, q)
	}, &frags)
	sortFragments(frags)
	return frags, err
}

// diffLeaves compares two leaves covering the same page. Fragments
// referencing the same chunk sub-ranges are unchanged; everything else
// is reported. Chained leaves are handled conservatively: if either
// leaf has a chain, the page's covered ranges are compared by
// reference only when both fragment lists are flat.
func diffLeaves(page extent.Extent, a, b *Node) extent.List {
	if !a.Prev.IsZero() || !b.Prev.IsZero() {
		if a.Prev == b.Prev && fragmentsEqual(a.Frags, b.Frags) {
			return nil
		}
		return extent.List{page}
	}
	if fragmentsEqual(a.Frags, b.Frags) {
		return nil
	}
	// Report ranges covered on one side only, plus ranges whose backing
	// reference changed.
	ca, cb := coverage(a.Frags), coverage(b.Frags)
	out := append(ca.Subtract(cb), cb.Subtract(ca)...)
	// Common coverage: changed where the refs disagree byte-for-byte.
	common := ca.Intersect(cb)
	for _, ext := range common {
		for off := ext.Offset; off < ext.End(); {
			ra, la := refAt(a.Frags, off)
			rb, lb := refAt(b.Frags, off)
			n := min(la, lb, ext.End()-off) // both > 0: off is covered on both sides
			if !ra.EqualData(rb) {
				out = append(out, extent.Extent{Offset: off, Length: n})
			}
			off += n
		}
	}
	return out
}

// coverage returns the byte ranges a fragment list covers.
func coverage(frags []Fragment) extent.List {
	out := make(extent.List, 0, len(frags))
	for _, f := range frags {
		out = append(out, f.Ext)
	}
	return out.Normalize()
}

// refAt resolves which chunk sub-range backs the byte at off and how
// many bytes of that backing remain from off; a zero ref means
// uncovered.
func refAt(frags []Fragment, off int64) (ref chunk.Ref, remaining int64) {
	for _, f := range frags {
		if f.Ext.Contains(off) {
			delta := off - f.Ext.Offset
			return chunk.Ref{Key: f.Ref.Key, Offset: f.Ref.Offset + delta, Length: 1}, f.Ext.End() - off
		}
	}
	return chunk.Ref{}, 0
}

func fragmentsEqual(a, b []Fragment) bool {
	return slices.EqualFunc(a, b, func(x, y Fragment) bool { return x.Ext == y.Ext && x.Ref.EqualData(y.Ref) })
}
