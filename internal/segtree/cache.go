package segtree

import (
	"container/list"
	"sync"
)

// NodeCache is a NodeStore decorator that keeps recently used nodes in
// a bounded LRU. Caching is safe without invalidation because nodes
// are immutable and a NodeKey is never re-put with different content
// (a version ticket is used exactly once, aborted versions are not
// reused): a cached node can be unreachable, never stale. Callers walk
// it only from a root the version manager has vouched for.
//
// A get — GetNode, TryGetNode or a member of GetNodes — is answered from
// the cache when the node is there and fills it when the inner store
// finds the node; an acknowledged put writes through (a writer re-reading
// what it just wrote is the MPI pattern, and the predecessor leaf a write
// flattens over is often one this handle stored). What is never cached is
// a miss or an error: "not stored yet" is the one answer that changes, so
// a try-get that missed asks the inner store again next time. Cached
// nodes are shared between callers and must not be modified.
//
// NodeCache has the list methods whatever its inner store has: the inner
// store's own, or the per-call adapter's, chosen once in NewNodeCache.
// When the inner store walks (the framed client), Tree.Resolve answers
// each level of its walk from the cache and sends only the level's misses,
// as one walk, whose nodes fill the cache like a get's. When it builds
// too, Tree.Build hands it each update whole and none of the update's
// nodes is cached: a writer's first read of its own write costs one walk.
type NodeCache struct {
	inner    NodeStore
	batch    nodeBatcher // inner's list methods
	walker   nodeWalker  // inner's walk, nil when it has none
	builder  treeBuilder // inner's build, nil when it has none
	capacity int

	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     *list.List // of cacheEntry, most recently used first
	hits    int64
	misses  int64
}

type cacheKey struct {
	blob uint64
	key  NodeKey
}

type cacheEntry struct {
	id   cacheKey
	node *Node
}

// NodeCacheStats is a snapshot of a NodeCache's counters.
type NodeCacheStats struct {
	Hits    int64 // gets of any form, and nodes a walk looked up, served from the cache
	Misses  int64 // the same that went to the inner store
	Entries int   // current entry count
}

var (
	_ NodeStore   = (*NodeCache)(nil)
	_ nodeBatcher = (*NodeCache)(nil)
)

// NewNodeCache wraps inner with a cache of at most capacity (at least
// one) nodes.
func NewNodeCache(inner NodeStore, capacity int) *NodeCache {
	capacity = max(capacity, 1)
	walker, _ := inner.(nodeWalker)
	builder, _ := inner.(treeBuilder)
	return &NodeCache{
		inner:    inner,
		batch:    batchOf(inner),
		walker:   walker,
		builder:  builder,
		capacity: capacity,
		entries:  make(map[cacheKey]*list.Element),
		lru:      list.New(),
	}
}

// PutNode stores the node and, once the store acknowledged it, caches
// it.
func (c *NodeCache) PutNode(blob uint64, key NodeKey, n *Node) error {
	if err := c.inner.PutNode(blob, key, n); err != nil {
		return err
	}
	c.fill(blob, key, n)
	return nil
}

// PutNodes stores the nodes as one list operation and caches them once
// the store acknowledged them all.
func (c *NodeCache) PutNodes(blob uint64, keys []NodeKey, nodes []*Node) error {
	if err := c.batch.PutNodes(blob, keys, nodes); err != nil {
		return err
	}
	c.mu.Lock()
	for i, key := range keys {
		c.insertLocked(cacheKey{blob, key}, nodes[i])
	}
	c.mu.Unlock()
	return nil
}

// GetNode returns the cached node, or fetches and caches it.
func (c *NodeCache) GetNode(blob uint64, key NodeKey) (*Node, error) {
	if n := c.lookup(blob, key); n != nil {
		return n, nil
	}
	n, err := c.inner.GetNode(blob, key)
	if err != nil {
		return nil, err
	}
	c.fill(blob, key, n)
	return n, nil
}

// TryGetNode returns the cached node, or asks the inner store and caches
// the node if it is there.
func (c *NodeCache) TryGetNode(blob uint64, key NodeKey) (*Node, bool, error) {
	if n := c.lookup(blob, key); n != nil {
		return n, true, nil
	}
	n, ok, err := c.inner.TryGetNode(blob, key)
	if err != nil || !ok {
		return nil, false, err
	}
	c.fill(blob, key, n)
	return n, true, nil
}

// GetNodes answers what it can from the cache and asks the inner store
// for the rest as one list operation.
func (c *NodeCache) GetNodes(blob uint64, keys []NodeKey, try bool) ([]*Node, error) {
	nodes := make([]*Node, len(keys))
	var (
		missed []NodeKey
		at     []int // missed[j] is keys[at[j]]
	)
	c.mu.Lock()
	for i, key := range keys {
		if nodes[i] = c.lookupLocked(cacheKey{blob, key}); nodes[i] == nil {
			missed, at = append(missed, key), append(at, i)
		}
	}
	c.mu.Unlock()
	if len(missed) == 0 {
		return nodes, nil
	}
	fetched, err := c.batch.GetNodes(blob, missed, try)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	for j, n := range fetched {
		if nodes[at[j]] = n; n != nil {
			c.insertLocked(cacheKey{blob, missed[j]}, n)
		}
	}
	c.mu.Unlock()
	return nodes, nil
}

// lookup returns the cached node, nil when there is none, and counts the
// hit or miss.
func (c *NodeCache) lookup(blob uint64, key NodeKey) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(cacheKey{blob, key})
}

func (c *NodeCache) lookupLocked(id cacheKey) *Node {
	el, ok := c.entries[id]
	if !ok {
		c.misses++
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits++
	return el.Value.(cacheEntry).node
}

// fill caches a node the inner store returned.
func (c *NodeCache) fill(blob uint64, key NodeKey, n *Node) {
	c.mu.Lock()
	c.insertLocked(cacheKey{blob, key}, n)
	c.mu.Unlock()
}

// insertLocked adds the node unless a concurrent caller already did,
// evicting the least recently used entry when full.
func (c *NodeCache) insertLocked(id cacheKey, n *Node) {
	if el, ok := c.entries[id]; ok {
		c.lru.MoveToFront(el)
		return
	}
	if c.lru.Len() >= c.capacity {
		oldest := c.lru.Back()
		delete(c.entries, oldest.Value.(cacheEntry).id)
		c.lru.Remove(oldest)
	}
	c.entries[id] = c.lru.PushFront(cacheEntry{id, n})
}

// Stats returns a snapshot of the cache counters.
func (c *NodeCache) Stats() NodeCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return NodeCacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}
