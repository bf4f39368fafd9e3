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
// GetNode fills the cache on a miss and an acknowledged PutNode writes
// through (a writer re-reading what it just wrote is the MPI pattern).
// TryGetNode is the write path's "is it stored yet" probe and always
// asks the inner store; its answers, like errors, are never cached.
// Cached nodes are shared between callers and must not be modified.
type NodeCache struct {
	inner    NodeStore
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
	Hits    int64 // GetNode calls served from the cache
	Misses  int64 // GetNode calls that went to the inner store
	Entries int   // current entry count
}

var _ NodeStore = (*NodeCache)(nil)

// NewNodeCache wraps inner with a cache of at most capacity (at least
// one) nodes.
func NewNodeCache(inner NodeStore, capacity int) *NodeCache {
	capacity = max(capacity, 1)
	return &NodeCache{
		inner:    inner,
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
	c.mu.Lock()
	c.insertLocked(cacheKey{blob, key}, n)
	c.mu.Unlock()
	return nil
}

// GetNode returns the cached node, or fetches and caches it.
func (c *NodeCache) GetNode(blob uint64, key NodeKey) (*Node, error) {
	id := cacheKey{blob, key}
	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		n := el.Value.(cacheEntry).node
		c.mu.Unlock()
		return n, nil
	}
	c.misses++
	c.mu.Unlock()
	n, err := c.inner.GetNode(blob, key)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.insertLocked(id, n)
	c.mu.Unlock()
	return n, nil
}

// TryGetNode always asks the inner store.
func (c *NodeCache) TryGetNode(blob uint64, key NodeKey) (*Node, bool, error) {
	return c.inner.TryGetNode(blob, key)
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
