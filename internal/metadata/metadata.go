// Package metadata implements the metadata providers: the distributed
// store holding segment-tree nodes. Nodes are immutable and keyed by
// (blob, version, offset, size); the store shards them across several
// metadata providers by key hash, each provider metered independently,
// mirroring BlobSeer's DHT-style metadata layer.
package metadata

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/iosim"
	"repro/internal/segtree"
)

// ErrNotFound is returned when a requested node is absent.
var ErrNotFound = errors.New("metadata: node not found")

// ErrExists is returned when an immutable node is stored twice with
// different content; identical re-puts are idempotent no-ops.
var ErrExists = errors.New("metadata: node already exists")

// nodeID is the full key of a node within the store.
type nodeID struct {
	blob uint64
	key  segtree.NodeKey
}

// shard is one metadata provider.
type shard struct {
	mu    sync.RWMutex
	nodes map[nodeID]*segtree.Node
	meter *iosim.Meter
}

// Store is a sharded in-memory node store implementing
// segtree.NodeStore. It is safe for concurrent use.
type Store struct {
	shards []*shard
}

var _ segtree.NodeStore = (*Store)(nil)

// NewStore creates a store with n shards, each charged with the given
// cost model (zero model for unmetered unit tests).
func NewStore(n int, model iosim.CostModel) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]*shard, n)}
	for i := range s.shards {
		s.shards[i] = &shard{
			nodes: make(map[nodeID]*segtree.Node),
			meter: iosim.NewMeter(model, true),
		}
	}
	return s
}

// Meters returns the per-shard meters for inspection.
// TestDiffSharedSubtreesSkipped in internal/segtree counts the node
// gets a comparison makes with them.
func (s *Store) Meters() []*iosim.Meter {
	out := make([]*iosim.Meter, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.meter
	}
	return out
}

func (s *Store) shardFor(id nodeID) *shard {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(id.blob)
	put(id.key.Version)
	put(uint64(id.key.Offset))
	put(uint64(id.key.Size))
	return s.shards[h.Sum64()%uint64(len(s.shards))]
}

// nodeSize approximates the wire size of a node for metering.
func nodeSize(n *segtree.Node) int64 {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return int64(len(n.Frags))*52 + 24
	}
	return 48
}

// PutNode implements segtree.NodeStore.
func (s *Store) PutNode(blob uint64, key segtree.NodeKey, n *segtree.Node) error {
	id := nodeID{blob: blob, key: key}
	sh := s.shardFor(id)
	sh.mu.Lock()
	if old, dup := sh.nodes[id]; dup {
		sh.mu.Unlock()
		// A transport that re-sends a put it saw no answer to stores the
		// same node twice: nothing to do. Different content under a
		// stored key is a protocol error (a version ticket is used
		// exactly once). Same content is same encoding.
		if bytes.Equal(segtree.AppendNode(nil, old), segtree.AppendNode(nil, n)) {
			return nil
		}
		return fmt.Errorf("%w: blob %d %s", ErrExists, blob, key)
	}
	sh.nodes[id] = cloneNode(n)
	sh.mu.Unlock()
	sh.meter.Charge(nodeSize(n))
	return nil
}

// GetNode implements segtree.NodeStore.
func (s *Store) GetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, error) {
	n, err := s.Peek(blob, key)
	if err != nil {
		return nil, err
	}
	return cloneNode(n), nil
}

// Peek is GetNode without the copy: the stored node itself, shared with
// the store and every other caller, which must not be modified — for a
// caller that only encodes what it reads, as the framed server's walk
// does.
func (s *Store) Peek(blob uint64, key segtree.NodeKey) (*segtree.Node, error) {
	id := nodeID{blob: blob, key: key}
	sh := s.shardFor(id)
	sh.mu.RLock()
	n, ok := sh.nodes[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: blob %d %s", ErrNotFound, blob, key)
	}
	sh.meter.Charge(nodeSize(n))
	return n, nil
}

// TryGetNode implements segtree.NodeStore.
func (s *Store) TryGetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	id := nodeID{blob: blob, key: key}
	sh := s.shardFor(id)
	sh.mu.RLock()
	n, ok := sh.nodes[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	sh.meter.Charge(nodeSize(n))
	return cloneNode(n), true, nil
}

// Count returns the total number of stored nodes across shards.
func (s *Store) Count() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		total += len(sh.nodes)
		sh.mu.RUnlock()
	}
	return total
}

// cloneNode deep-copies a node so callers never share fragment slices.
func cloneNode(n *segtree.Node) *segtree.Node {
	cp := *n
	if n.Frags != nil {
		cp.Frags = make([]segtree.Fragment, len(n.Frags))
		copy(cp.Frags, n.Frags)
	}
	return &cp
}
