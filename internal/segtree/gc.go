package segtree

import (
	"repro/internal/chunk"
	"repro/internal/extent"
)

// ExclusiveChunks computes which chunk keys become unreferenced when
// the snapshot rooted at drop is dropped while the snapshots rooted at
// keep stay retained: the keys reachable from drop's tree but from
// none of the keepers'. This is the refcount-by-metadata-diff walk the
// garbage collector runs before deleting anything.
//
// Like Diff, the walk exploits shadowing: at every tree range the
// dropped version's node key is compared against the keepers' keys for
// the same range, and a subtree shared with any keeper (identical
// NodeKey) is skipped without being fetched — everything below it is
// reachable from that keeper and therefore not exclusive. The cost is
// proportional to the metadata that distinguishes drop from its
// retained neighbors, not to the blob size.
//
// Reachability is what readers can observe: at each leaf the fragment
// chain is resolved newest-first over the full page, exactly as
// Resolve does, so a chunk buried under a chain but fully covered by
// newer fragments counts as unreachable for that version.
//
// The walk requires the invariant the blob write path maintains: each
// chunk is stored page-split (blob.storeChunks splits pieces at page
// boundaries BEFORE storing), so a chunk key is only ever referenced
// by leaves of the one page it was written to, which makes the
// per-page set difference globally correct. Refs produced by placing
// one chunk across pages (SplitPlaced over a multi-page chunk) violate
// the assumption: a key could then be protected by a keeper at one
// page yet reported exclusive at another.
func (t *Tree) ExclusiveChunks(drop NodeKey, keep []NodeKey) ([]chunk.Key, error) {
	var out []chunk.Key
	seen := make(map[chunk.Key]bool)
	var walk func(off, size int64, drop NodeKey, keep []NodeKey) error
	walk = func(off, size int64, drop NodeKey, keep []NodeKey) error {
		if drop.IsZero() {
			return nil // hole on the dropped side: nothing referenced
		}
		for _, k := range keep {
			if k == drop {
				return nil // shared subtree: every ref below is retained
			}
		}
		if size == t.Geo.Page {
			return t.exclusiveLeaf(off, size, drop, keep, seen, &out)
		}
		dn, err := t.Store.GetNode(t.Blob, drop)
		if err != nil {
			return err
		}
		// Fetch each distinct keeper node once (two keepers may have
		// borrowed the same subtree and carry the same key).
		var kl, kr []NodeKey
		fetched := make(map[NodeKey]bool, len(keep))
		for _, k := range keep {
			if k.IsZero() || fetched[k] {
				continue
			}
			fetched[k] = true
			kn, err := t.Store.GetNode(t.Blob, k)
			if err != nil {
				return err
			}
			kl = append(kl, kn.Left)
			kr = append(kr, kn.Right)
		}
		half := size / 2
		if err := walk(off, half, dn.Left, kl); err != nil {
			return err
		}
		return walk(off+half, half, dn.Right, kr)
	}
	if err := walk(0, t.Geo.Capacity, drop, keep); err != nil {
		return nil, err
	}
	return out, nil
}

// exclusiveLeaf resolves the dropped leaf's reachable refs over its
// whole page and subtracts every chunk key reachable from any keeper
// leaf of the same page.
func (t *Tree) exclusiveLeaf(off, size int64, drop NodeKey, keep []NodeKey, seen map[chunk.Key]bool, out *[]chunk.Key) error {
	dropKeys, err := t.reachableKeys(drop, off, size)
	if err != nil {
		return err
	}
	if len(dropKeys) == 0 {
		return nil
	}
	kept := make(map[chunk.Key]bool)
	fetched := make(map[NodeKey]bool, len(keep))
	for _, k := range keep {
		if k.IsZero() || fetched[k] {
			continue
		}
		fetched[k] = true
		keys, err := t.reachableKeys(k, off, size)
		if err != nil {
			return err
		}
		for _, key := range keys {
			kept[key] = true
		}
	}
	for _, key := range dropKeys {
		if !kept[key] && !seen[key] {
			seen[key] = true
			*out = append(*out, key)
		}
	}
	return nil
}

// reachableKeys lists the distinct chunk keys a reader can reach from
// one leaf over its full page (any sub-range read resolves a subset of
// these, so this is the complete reference set of the leaf).
func (t *Tree) reachableKeys(leaf NodeKey, off, size int64) ([]chunk.Key, error) {
	// A leaf is the root of its own one-level tree: the walk is the
	// chain's.
	frags, _, err := t.Resolve(leaf, extent.List{{Offset: off, Length: size}})
	if err != nil {
		return nil, err
	}
	var keys []chunk.Key
	dedup := make(map[chunk.Key]bool, len(frags))
	for _, f := range frags {
		if !dedup[f.Ref.Key] {
			dedup[f.Ref.Key] = true
			keys = append(keys, f.Ref.Key)
		}
	}
	return keys, nil
}
