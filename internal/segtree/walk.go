package segtree

import (
	"errors"
	"fmt"

	"repro/internal/extent"
)

// ErrBadLink is a walk's refusal of a node that links where no tree built
// by Build or BuildEmpty does: an inner node whose children are not the
// two halves of its range at versions no newer than its own, or a leaf
// whose chain link is not its own range at an older version. Such a link
// leaves its range or can lead back to where it started, so a walk that
// followed it could read the wrong bytes or never end. The comparisons'
// descent (Diff, ExclusiveChunks) also refuses a node off its level: a
// leaf above the page size, or an inner node at or below it.
var ErrBadLink = errors.New("segtree: node links outside its range or not to an older version")

// FetchLevel returns the nodes of keys, in key order. queries[i] is the
// part of the walk's query under keys[i], for a source that walks on
// below them itself.
type FetchLevel func(keys []NodeKey, queries []extent.List) ([]*Node, error)

// nodeWalker is what a NodeStore may implement beside the list methods
// (the framed client does): a resolve's walk as one operation, answered
// where the nodes are. WalkNodes returns nodes a Walk from keys with
// queries visits, each in AppendNode's form so that a caller decodes only
// those it lacks, in the walk's order — every node of one round before
// any of the next. A reply may stop short of the walk's end (it has a
// byte bound) but always holds the node of keys[0]. A node not stored is
// an error.
type nodeWalker interface {
	WalkNodes(blob uint64, keys []NodeKey, queries []extent.List) ([]NodeKey, [][]byte, error)
}

// Walk is the level-synchronous walk of a resolve over whatever fetch
// reads nodes from: Tree.Resolve runs it over the node seam, the framed
// server over its metadata store to answer a walk request. It starts from
// every keys[i] with queries[i], the normalized part of the query within
// that node's range, and each round hands fetch every node it reaches
// next — one level of the tree, or the next link of every chain — with
// the part of the query under each. An inner node passes each half of its
// part to that child; a leaf keeps what its fragments cover (appended to
// frags, when frags is non-nil) and passes the rest down its chain. What
// reaches a missing child or a chain's end is returned as holes. Walk
// stops at fetch's first error and refuses a node that links as no built
// tree does (ErrBadLink), so no store, however it was filled, makes it
// loop.
func Walk(keys []NodeKey, queries []extent.List, fetch FetchLevel, frags *[]Fragment) (holes extent.List, err error) {
	for len(keys) > 0 {
		nodes, err := fetch(keys, queries)
		if err != nil {
			return nil, err
		}
		if len(nodes) != len(keys) {
			return nil, fmt.Errorf("segtree: fetched %d nodes for %d keys from %s on", len(nodes), len(keys), keys[0])
		}
		var (
			below  []NodeKey
			belowQ []extent.List
		)
		descend := func(child NodeKey, q extent.List) {
			switch {
			case len(q) == 0:
			case child.IsZero():
				holes = append(holes, q...)
			default:
				below, belowQ = append(below, child), append(belowQ, q)
			}
		}
		for i, n := range nodes {
			k, q := keys[i], queries[i]
			if err := checkLinks(k, n); err != nil {
				return nil, err
			}
			if n.Leaf {
				descend(n.Prev, n.resolve(q, frags))
				continue
			}
			lq, rq := q.Cut(k.Offset + k.Size/2)
			descend(n.Left, lq)
			descend(n.Right, rq)
		}
		keys, queries = below, belowQ
	}
	return holes, nil
}

// checkLinks refuses the node stored under k if it links as no built tree
// does (see ErrBadLink). Sizes halve going down and versions fall along a
// chain, so a walk that passes it ends.
func checkLinks(k NodeKey, n *Node) error {
	if n == nil {
		return fmt.Errorf("segtree: no node for %s", k)
	}
	if n.Leaf {
		if p := n.Prev; !p.IsZero() && (p.Offset != k.Offset || p.Size != k.Size || p.Version >= k.Version) {
			return fmt.Errorf("%w: leaf %s chains to %s", ErrBadLink, k, p)
		}
		return nil
	}
	if k.Size < 2 || k.Size%2 != 0 {
		return fmt.Errorf("%w: inner node %s has no two halves", ErrBadLink, k)
	}
	half := k.Size / 2
	for i, c := range [2]NodeKey{n.Left, n.Right} {
		if !c.IsZero() && (c.Offset != k.Offset+int64(i)*half || c.Size != half || c.Version > k.Version) {
			return fmt.Errorf("%w: inner node %s links to %s", ErrBadLink, k, c)
		}
	}
	return nil
}

// levels is what Resolve fetches each round of its walk with, and the
// comparisons' descent each of its rounds (with empty queries). Over a
// store that walks — bare, or under a NodeCache — a round's misses go out
// as one walk; over any other store each round is one list get, through
// the cache when there is one, exactly as an in-process store has always
// been asked.
func (t *Tree) levels() FetchLevel {
	switch s := t.Store.(type) {
	case *NodeCache:
		if s.walker != nil {
			return (&walkFetch{blob: t.Blob, store: s.walker, cache: s}).level
		}
	case nodeWalker:
		return (&walkFetch{blob: t.Blob, store: s}).level
	}
	store := batchOf(t.Store)
	return func(keys []NodeKey, _ []extent.List) ([]*Node, error) {
		nodes, err := store.GetNodes(t.Blob, keys, false)
		if err != nil {
			return nil, fmt.Errorf("segtree: fetch %d nodes from %s on: %w", len(keys), keys[0], err)
		}
		return nodes, nil
	}
}

// walkFetch fetches the rounds of one walk from a store that walks. A
// round's nodes come from the cache, when there is one, or from what this
// walk's earlier replies brought; the rest go out as one walk, whose reply
// brings the rounds below them too. Every node a reply brings is kept for
// the rest of the walk, whatever the cache evicts meanwhile, and only the
// nodes the cache lacks are decoded — and then cached. A reply cut short
// by its bound leaves the rest as misses of a later round, or of this one,
// asked again.
type walkFetch struct {
	blob   uint64
	store  nodeWalker
	cache  *NodeCache // nil: none
	walked map[NodeKey]*Node
}

func (w *walkFetch) level(keys []NodeKey, queries []extent.List) ([]*Node, error) {
	nodes := make([]*Node, len(keys))
	var (
		missed  []NodeKey
		missedQ []extent.List
		at      []int // missed[j] is keys[at[j]]
	)
	w.lock()
	for i, key := range keys {
		if w.cache != nil {
			nodes[i] = w.cache.lookupLocked(cacheKey{w.blob, key})
		}
		if nodes[i] == nil {
			if nodes[i] = w.walked[key]; nodes[i] == nil {
				missed, missedQ, at = append(missed, key), append(missedQ, queries[i]), append(at, i)
			}
		}
	}
	w.unlock()
	for len(missed) > 0 {
		got, encs, err := w.store.WalkNodes(w.blob, missed, missedQ)
		if err == nil {
			err = w.keep(got, encs)
		}
		if err == nil && w.walked[missed[0]] == nil {
			err = errors.New("the reply lacks it")
		}
		if err != nil {
			return nil, fmt.Errorf("segtree: walk %d nodes from %s on: %w", len(missed), missed[0], err)
		}
		left := 0
		for j, key := range missed {
			if nodes[at[j]] = w.walked[key]; nodes[at[j]] == nil {
				missed[left], missedQ[left], at[left] = key, missedQ[j], at[j]
				left++
			}
		}
		missed, missedQ, at = missed[:left], missedQ[:left], at[:left]
	}
	return nodes, nil
}

// keep records a reply's nodes for the rest of the walk: the cache's own
// node where it has one, otherwise the decoded one, which is cached too.
func (w *walkFetch) keep(keys []NodeKey, encs [][]byte) error {
	if w.walked == nil {
		w.walked = make(map[NodeKey]*Node, len(keys))
	}
	var decode []int // indexes of the nodes the cache lacks
	w.lock()
	for i, key := range keys {
		if w.walked[key] != nil {
			continue
		}
		if w.cache != nil {
			if el, ok := w.cache.entries[cacheKey{w.blob, key}]; ok {
				w.walked[key] = el.Value.(cacheEntry).node
				continue
			}
		}
		decode = append(decode, i)
	}
	w.unlock()
	for _, i := range decode {
		n, err := DecodeNode(encs[i])
		if err != nil {
			return fmt.Errorf("node %s: %w", keys[i], err)
		}
		w.walked[keys[i]] = n
	}
	if w.cache != nil {
		w.cache.mu.Lock()
		for _, i := range decode {
			w.cache.insertLocked(cacheKey{w.blob, keys[i]}, w.walked[keys[i]])
		}
		w.cache.mu.Unlock()
	}
	return nil
}

func (w *walkFetch) lock() {
	if w.cache != nil {
		w.cache.mu.Lock()
	}
}

func (w *walkFetch) unlock() {
	if w.cache != nil {
		w.cache.mu.Unlock()
	}
}
