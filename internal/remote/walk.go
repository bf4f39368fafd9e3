package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// The walk op (21): a resolve's tree walk answered where the nodes are, in
// one request; the bodies are in the file header of framed.go.

const (
	walkHead      = segtree.NodeKeyLen + 4 // a key and a u32: a request part's extent count, a reply entry's length
	walkEntryMin  = walkHead + 1           // a node is a kind byte at least
	walkExtentLen = 16                     // offset, length
)

// errWalkFull stops a server's walk at the reply's bound.
var errWalkFull = errors.New("remote: walk reply full")

// WalkNodes sends a resolve's walk as one request and returns the nodes
// the server's walk visited, each in segtree's binary form: the walk's
// nodes in its order, cut where the reply reached its bound but never
// before the node of keys[0]. segtree finds it by assertion, as it does
// the list methods. A request too long for the bound carries the first
// parts that fit, or the first part alone with its query widened to one
// extent — a walk over more nodes, never fewer.
func (c *Client) WalkNodes(blobID uint64, keys []segtree.NodeKey, queries []extent.List) ([]segtree.NodeKey, [][]byte, error) {
	size := 4
	for _, q := range queries {
		size += walkHead + walkExtentLen*len(q)
	}
	body := binary.LittleEndian.AppendUint32(make([]byte, 0, min(size, maxWalkBody)), 0)
	parts := 0
	for i, key := range keys {
		q := queries[i]
		if len(body)+walkHead+walkExtentLen*len(q) > maxWalkBody {
			if parts > 0 {
				break
			}
			q = extent.List{q.Bounding()}
		}
		body = segtree.AppendKey(body, key)
		body = vmanager.AppendExtents(body, q)
		parts++
	}
	binary.LittleEndian.PutUint32(body, uint32(parts))
	r := c.nodes.one(framedCall{h: frameHeader{op: opWalkNodes, key: chunk.Key{Blob: blobID}}, data: body})
	if r.err != nil {
		return nil, nil, r.err
	}
	return decodeWalkReply(r.data)
}

// decodeWalkReply splits a walk reply into keys and encoded nodes, which
// alias b. Every count and length is checked against what remains.
func decodeWalkReply(b []byte) ([]segtree.NodeKey, [][]byte, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("remote: walk reply truncated")
	}
	n := int64(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > int64(len(b)/walkEntryMin) {
		return nil, nil, fmt.Errorf("remote: walk reply claims %d nodes in %d bytes", n, len(b))
	}
	keys, encs := make([]segtree.NodeKey, n), make([][]byte, n)
	for i := range keys {
		if len(b) < walkHead {
			return nil, nil, errors.New("remote: walk reply truncated")
		}
		keys[i] = segtree.DecodeKey(b)
		size := int64(binary.LittleEndian.Uint32(b[segtree.NodeKeyLen:]))
		b = b[walkHead:]
		if size > int64(len(b)) {
			return nil, nil, fmt.Errorf("remote: walk reply node %s of %d bytes in %d", keys[i], size, len(b))
		}
		encs[i], b = b[:size:size], b[size:]
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("remote: %d bytes after a walk reply", len(b))
	}
	return keys, encs, nil
}

// decodeWalkRequest decodes a walk request, refusing what no resolve
// sends: counts the body cannot hold, a key without a range, an extent
// that is negative, overflows, is out of order or leaves its key's range.
// Every count is checked against what remains before anything is
// allocated for it.
func decodeWalkRequest(b []byte) ([]segtree.NodeKey, []extent.List, error) {
	if len(b) < 4 {
		return nil, nil, errors.New("remote: walk request truncated")
	}
	n := int64(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > int64(len(b)/walkHead) {
		return nil, nil, fmt.Errorf("remote: walk request claims %d parts in %d bytes", n, len(b))
	}
	keys, queries := make([]segtree.NodeKey, n), make([]extent.List, n)
	for i := range keys {
		if len(b) < walkHead {
			return nil, nil, errors.New("remote: walk request truncated")
		}
		key := segtree.DecodeKey(b)
		end := walkHead + walkExtentLen*int64(binary.LittleEndian.Uint32(b[segtree.NodeKeyLen:]))
		if end > int64(len(b)) {
			return nil, nil, fmt.Errorf("remote: walk request part %d runs past the body", i)
		}
		q, err := vmanager.DecodeExtents(b[segtree.NodeKeyLen:end])
		if err != nil {
			return nil, nil, fmt.Errorf("remote: walk request part %d: %w", i, err)
		}
		if key.Offset < 0 || key.Size <= 0 || key.Offset > math.MaxInt64-key.Size {
			return nil, nil, fmt.Errorf("remote: walk request part %d: node %s has no range", i, key)
		}
		if !q.IsNormalized() || (len(q) > 0 && (q[0].Offset < key.Offset || q[len(q)-1].End() > key.Offset+key.Size)) {
			return nil, nil, fmt.Errorf("remote: walk request part %d: query %v is not a normalized list within %s", i, q, key)
		}
		keys[i], queries[i], b = key, q, b[end:]
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("remote: %d bytes after a walk request", len(b))
	}
	return keys, queries, nil
}

// serveWalk answers a walk: segtree's own walk over the metadata store,
// each node encoded as it is read, until the walk ends or the next node
// would take the reply past walkBound. The reply is built in *scratch,
// which the connection keeps for its next walk unless it grew past
// bodyStep. What is wrong with the request, req, fails this op alone.
func (s *framedServer) serveWalk(w *replyWriter, h frameHeader, req []byte, scratch *[]byte) error {
	var reply []byte
	err := errNoMetaRole
	if s.nodes != nil {
		reply, err = s.walk((*scratch)[:0], h.key.Blob, req)
	}
	if err != nil {
		return writeErrReply(w, err)
	}
	if cap(reply) <= bodyStep {
		*scratch = reply
	}
	return s.writeOK(w, reply)
}

// walk runs the walk a request asks for and appends the reply body to buf.
func (s *framedServer) walk(buf []byte, blob uint64, req []byte) ([]byte, error) {
	keys, queries, err := decodeWalkRequest(req)
	if err != nil {
		return nil, err
	}
	reply := binary.LittleEndian.AppendUint32(buf, 0)
	count := 0
	_, err = segtree.Walk(keys, queries, func(keys []segtree.NodeKey, _ []extent.List) ([]*segtree.Node, error) {
		nodes := make([]*segtree.Node, len(keys))
		for i, key := range keys {
			n, err := s.nodes.GetNode(blob, key)
			if err != nil {
				return nil, err
			}
			start := len(reply)
			reply = segtree.AppendKey(reply, key)
			reply = binary.LittleEndian.AppendUint32(reply, 0)
			reply = segtree.AppendNode(reply, n)
			binary.LittleEndian.PutUint32(reply[start+segtree.NodeKeyLen:], uint32(len(reply)-start-walkHead))
			if len(reply) > s.walkBound {
				if count == 0 {
					return nil, fmt.Errorf("remote: node %s takes a walk reply past its bound of %d bytes", key, s.walkBound)
				}
				reply = reply[:start]
				return nil, errWalkFull
			}
			nodes[i] = n
			count++
		}
		return nodes, nil
	}, nil)
	if err != nil && err != errWalkFull {
		return nil, err
	}
	binary.LittleEndian.PutUint32(reply, uint32(count))
	s.walkNodes.Observe(float64(count))
	return reply, nil
}
