package segtree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/chunk"
	"repro/internal/extent"
)

// Builder is the pipelined counterpart of Build: it plans the new tree
// from the write's extents alone — which are known before any chunk is
// uploaded — stores every inner node immediately (inner nodes reference
// child KEYS, which the plan determines without data), and completes
// each leaf as soon as the chunk refs covering it arrive via SetPiece.
// This overlaps chunk upload with metadata construction: by the time
// the last chunk lands, most of the tree is already stored, and Finish
// only waits for the stragglers.
//
// Ordering guarantee: the version is not visible to any reader until
// the caller publishes the root returned by Finish — node stores need
// no ordering among themselves (metadata is a DHT of immutable nodes),
// so pipelining changes latency, never semantics.
//
// A Builder whose write fails midway may already have stored nodes
// under ticket v; Dirty reports whether any node store was attempted,
// which decides how the caller must retire the ticket (a tombstone
// build would collide with the stored nodes — see blob.retireTicket).
type Builder struct {
	t    *Tree
	v    uint64
	root NodeKey

	mu     sync.Mutex
	pieces []Placed // ref filled in by SetPiece
	leaves []*builderLeaf
	owner  []int // piece index → leaf index

	sem   chan struct{}
	wg    sync.WaitGroup
	errMu sync.Mutex
	err   error

	dirty atomic.Bool
}

// builderLeaf is one planned leaf waiting for its chunk refs.
type builderLeaf struct {
	key       NodeKey
	r         extent.Extent
	prev      uint64
	pieceIdx  []int
	remaining int
}

// NewBuilder validates and plans the update for ticket v over the
// given extents (sorted, non-overlapping, page-bounded — the same
// contract as Build's pieces), stores all inner nodes immediately, and
// returns a builder awaiting the leaves' chunk refs. Extent i of exts
// corresponds to SetPiece(i, ...).
func (t *Tree) NewBuilder(v uint64, exts []extent.Extent, borrows map[extent.Extent]uint64) (*Builder, error) {
	if len(exts) == 0 {
		return nil, errors.New("segtree: empty update")
	}
	for i, e := range exts {
		if e.Offset < 0 || e.End() > t.Geo.Capacity {
			return nil, fmt.Errorf("%w: piece %v", ErrOutOfRange, e)
		}
		if e.Offset/t.Geo.Page != (e.End()-1)/t.Geo.Page {
			return nil, fmt.Errorf("segtree: piece %v crosses page boundary", e)
		}
		if i > 0 && exts[i-1].End() > e.Offset {
			return nil, fmt.Errorf("segtree: pieces unsorted or overlapping at %d", i)
		}
	}

	b := &Builder{
		t:      t,
		v:      v,
		pieces: make([]Placed, len(exts)),
		owner:  make([]int, len(exts)),
		sem:    make(chan struct{}, maxMetaParallel),
	}
	for i, e := range exts {
		b.pieces[i].Ext = e
	}

	// The plan mirrors Build's: recursion over piece index ranges
	// instead of Placed slices, since only extents are known.
	var (
		keys  []NodeKey
		nodes []*Node
	)
	var plan func(off, size int64, lo, hi int) NodeKey
	plan = func(off, size int64, lo, hi int) NodeKey {
		r := extent.Extent{Offset: off, Length: size}
		if lo == hi {
			return borrowed(borrows, r)
		}
		key := NodeKey{Version: v, Offset: off, Size: size}
		if size == t.Geo.Page {
			leaf := &builderLeaf{key: key, r: r, prev: borrows[r], remaining: hi - lo}
			for i := lo; i < hi; i++ {
				leaf.pieceIdx = append(leaf.pieceIdx, i)
				b.owner[i] = len(b.leaves)
			}
			b.leaves = append(b.leaves, leaf)
			return key
		}
		half := size / 2
		mid := off + half
		split := lo
		for split < hi && exts[split].Offset < mid {
			split++
		}
		lk := plan(off, half, lo, split)
		rk := plan(mid, half, split, hi)
		keys, nodes = append(keys, key), append(nodes, &Node{Left: lk, Right: rk})
		return key
	}
	b.root = plan(0, t.Geo.Capacity, 0, len(exts))

	// Inner nodes go out now, as one put — the pipelining head start. The
	// builder is marked dirty first, so a failure observer never sees
	// dirty=false while a node write is in flight.
	if len(keys) > 0 {
		b.dirty.Store(true)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			if err := batchOf(t.Store).PutNodes(t.Blob, keys, nodes); err != nil {
				b.fail(err)
			}
		}()
	}
	return b, nil
}

// SetPiece hands the builder the chunk ref now holding piece i's data.
// When the last piece of a leaf arrives, the leaf is built and stored
// in the background. Safe for concurrent use; each piece must be set
// exactly once.
func (b *Builder) SetPiece(i int, ref chunk.Ref) {
	b.mu.Lock()
	b.pieces[i].Ref = ref
	leaf := b.leaves[b.owner[i]]
	leaf.remaining--
	ready := leaf.remaining == 0
	var placed []Placed
	if ready {
		placed = make([]Placed, len(leaf.pieceIdx))
		for j, idx := range leaf.pieceIdx {
			placed[j] = b.pieces[idx]
		}
	}
	b.mu.Unlock()
	if !ready {
		return
	}
	b.dirty.Store(true)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.sem <- struct{}{}
		defer func() { <-b.sem }()
		n, err := b.t.buildLeaf(leaf.r, placed, leaf.prev)
		if err == nil {
			err = b.t.Store.PutNode(b.t.Blob, leaf.key, n)
		}
		if err != nil {
			b.fail(err)
		}
	}()
}

// Finish waits for every in-flight node store and returns the new root
// key, or the first error observed. Callers must have SetPiece'd every
// piece (on the success path) before calling Finish; on the failure
// path Finish may be called early to drain in-flight stores.
func (b *Builder) Finish() (NodeKey, error) {
	b.wg.Wait()
	b.errMu.Lock()
	err := b.err
	b.errMu.Unlock()
	if err != nil {
		return NodeKey{}, err
	}
	return b.root, nil
}

// Dirty reports whether the builder attempted to store any node under
// its ticket. A clean builder's ticket can be retired with a tombstone
// build; a dirty one must be aborted instead, because the tombstone's
// node keys would collide with already-stored nodes.
func (b *Builder) Dirty() bool { return b.dirty.Load() }

func (b *Builder) fail(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
}
