package segtree

import "repro/internal/chunk"

// ExclusiveChunks computes which chunk keys become unreferenced when
// the snapshot rooted at drop is dropped while the snapshots rooted at
// keep stay retained: the keys reachable from drop's tree but from none
// of the keepers'. This is the refcount-by-metadata-diff the garbage
// collector runs before deleting anything.
//
// The comparison descent (descend) finds the pages where drop differs
// from the keepers, skipping unfetched each subtree drop shares with a
// keeper (identical NodeKey: all of it is retained) or does not reach,
// so the cost follows what distinguishes drop from its retained
// neighbors, not the blob size. One Walk resolves drop's leaves on those
// pages and another the keepers', chains newest-first over the full page
// as Resolve does (a chunk buried under newer fragments is unreachable);
// the answer is the first walk's keys minus the second's. A node that
// links as no built tree does, or sits off its level, is ErrBadLink.
//
// The difference is exact under the invariant the blob write path keeps:
// each chunk is stored page-split (blob.storeChunks splits pieces at page
// boundaries BEFORE storing), so a chunk key is referenced by leaves of
// one page only, and only the keepers' leaves on drop's differing pages
// can hold drop's keys. Refs that place one chunk across pages (a
// multi-page chunk split after storing) break it: a key could then be
// protected by a keeper at one page yet reported exclusive at another.
func (t *Tree) ExclusiveChunks(drop NodeKey, keep []NodeKey) ([]chunk.Key, error) {
	pages, nodes, err := t.descend(drop, keep, true)
	if err != nil {
		return nil, err
	}
	var dropped, kept []NodeKey
	for _, p := range pages {
		dropped, kept = append(dropped, p[0]), append(kept, p[1:]...)
	}
	keptFrags, err := t.walkLeaves(kept, nodes)
	if err != nil {
		return nil, err
	}
	dropFrags, err := t.walkLeaves(dropped, nodes)
	if err != nil {
		return nil, err
	}
	seen := make(map[chunk.Key]bool, len(keptFrags)) // retained, or already out
	for _, f := range keptFrags {
		seen[f.Ref.Key] = true
	}
	var out []chunk.Key
	for _, f := range dropFrags {
		if !seen[f.Ref.Key] {
			seen[f.Ref.Key] = true
			out = append(out, f.Ref.Key)
		}
	}
	return out, nil
}
