package segtree

import (
	"sync"
	"sync/atomic"
)

// nodeBatcher is what a NodeStore may implement beside its interface: a
// whole list of node calls as one operation, for a store that can carry
// the list as a unit (the framed client sends it as a few trains).
// BuildEmpty, Build over a store that does not build, and Resolve over a
// store that does not walk (walk.go) are written against these two
// methods alone; a store without them is driven through eachNode.
type nodeBatcher interface {
	// PutNodes stores nodes[i] under keys[i]. Every put is attempted; the
	// error is that of the first in key order to fail.
	PutNodes(blob uint64, keys []NodeKey, nodes []*Node) error
	// GetNodes returns the node of every key, in key order. A node that
	// is not stored is an error — that of the first such key — unless try
	// is set, when its entry is nil: the batch form of TryGetNode, which
	// like it must never wait for a writer.
	GetNodes(blob uint64, keys []NodeKey, try bool) ([]*Node, error)
}

// batchOf returns s's batch methods: its own, or the per-call adapter's.
// NewNodeCache asks once, for the life of the cache — every blob handle's
// tree sits on one; a Tree set directly on a bare store (tests, the
// benchmark's replay) asks once per operation.
func batchOf(s NodeStore) nodeBatcher {
	if b, ok := s.(nodeBatcher); ok {
		return b
	}
	return eachNode{s}
}

// maxMetaParallel bounds the calls eachNode keeps in flight for one
// batch, mimicking a client with a bounded request window.
const maxMetaParallel = 64

// eachNode is the one per-call fallback of the node seam: it runs a batch
// against a plain NodeStore as independent calls, up to maxMetaParallel
// in flight (BlobSeer's metadata is a DHT; node calls are independent).
// The in-process metadata.Store is driven this way, so every node still
// meets its meter as one call.
type eachNode struct{ NodeStore }

func (s eachNode) PutNodes(blob uint64, keys []NodeKey, nodes []*Node) error {
	return inParallel(len(keys), func(i int) error {
		return s.PutNode(blob, keys[i], nodes[i])
	})
}

func (s eachNode) GetNodes(blob uint64, keys []NodeKey, try bool) ([]*Node, error) {
	nodes := make([]*Node, len(keys))
	err := inParallel(len(keys), func(i int) (err error) {
		if try {
			nodes[i], _, err = s.TryGetNode(blob, keys[i])
		} else {
			nodes[i], err = s.GetNode(blob, keys[i])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return nodes, nil
}

// inParallel runs call(0..n-1) from at most maxMetaParallel goroutines —
// the caller's own when there is one call to make — and returns the error
// of the lowest index that failed.
func inParallel(n int, call func(i int) error) error {
	if n == 1 {
		return call(0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, maxMetaParallel); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = call(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
