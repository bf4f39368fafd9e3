package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/metadata"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// The build op (22): a write's tree built where the nodes are, in one
// request; the bodies are in the file header of framed.go.

const (
	buildGeoLen    = 16                // capacity, page
	buildTicketMin = 12                // version, borrow count
	buildBorrowLen = 24                // extent, version
	placedLen      = 16 + chunk.RefLen // a piece: extent, then its ref
)

// BuildTree sends a write's Build as one request: the meta role runs
// segtree's own Build over its store and answers the root key. segtree
// finds it by assertion, as it does WalkNodes; none of the nodes comes
// back. A build is never re-sent after a transport failure: the server
// may have run it, and a second one could find a predecessor leaf the
// first missed and store a different leaf under a stored key.
func (c *Client) BuildTree(blobID uint64, geo segtree.Geometry, v uint64, placed []segtree.Placed, borrows map[extent.Extent]uint64) (segtree.NodeKey, error) {
	body := appendBuild(geo, vmanager.Ticket{Version: v, Borrows: borrows}, placed)
	if len(body) > maxBuildBody {
		return segtree.NodeKey{}, fmt.Errorf("remote: a build of %d pieces takes %d bytes, over the bound of %d", len(placed), len(body), maxBuildBody)
	}
	r := c.nodes.one(framedCall{h: frameHeader{op: opBuildTree, key: chunk.Key{Blob: blobID}}, data: body, retried: true})
	if r.err != nil {
		return segtree.NodeKey{}, r.err
	}
	if len(r.data) != segtree.NodeKeyLen {
		return segtree.NodeKey{}, fmt.Errorf("remote: build reply of %d bytes, want %d", len(r.data), segtree.NodeKeyLen)
	}
	return segtree.DecodeKey(r.data), nil
}

// appendBuild returns a build request's body: the geometry, the ticket in
// vmanager's form, then the placed list.
func appendBuild(geo segtree.Geometry, tk vmanager.Ticket, placed []segtree.Placed) []byte {
	body := make([]byte, 0, buildGeoLen+buildTicketMin+buildBorrowLen*len(tk.Borrows)+4+placedLen*len(placed))
	body = vmanager.AppendGeometry(body, geo)
	body = vmanager.AppendTicket(body, tk)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(placed)))
	for _, p := range placed {
		body = binary.LittleEndian.AppendUint64(body, uint64(p.Ext.Offset))
		body = binary.LittleEndian.AppendUint64(body, uint64(p.Ext.Length))
		body = p.Ref.Append(body)
	}
	return body
}

// decodeBuild decodes a build request, refusing what no write sends: a
// geometry that fails Validate, a ticket of version 0 or with a borrow no
// older than itself, a piece that is empty, negative or overflows, counts
// the body cannot hold, bytes after the list. Every count is checked
// against what remains before anything is allocated for it; Build checks
// the pieces' order and pages.
func decodeBuild(b []byte) (segtree.Geometry, vmanager.Ticket, []segtree.Placed, error) {
	var (
		geo segtree.Geometry
		tk  vmanager.Ticket
	)
	if len(b) < buildGeoLen+buildTicketMin+4 {
		return geo, tk, nil, errors.New("remote: build request truncated")
	}
	geo, _ = vmanager.DecodeGeometry(b[:buildGeoLen]) // any 16 bytes decode
	if err := geo.Validate(); err != nil {
		return geo, tk, nil, fmt.Errorf("remote: build request: %w", err)
	}
	b = b[buildGeoLen:]
	n := int64(binary.LittleEndian.Uint32(b[8:]))
	if n > int64(len(b)-buildTicketMin)/buildBorrowLen {
		return geo, tk, nil, fmt.Errorf("remote: build request claims %d borrows in %d bytes", n, len(b)-buildTicketMin)
	}
	end := buildTicketMin + n*buildBorrowLen
	tk, err := vmanager.DecodeTicket(b[:end])
	if err != nil {
		return geo, tk, nil, fmt.Errorf("remote: build request ticket: %w", err)
	}
	if tk.Version == 0 {
		return geo, tk, nil, errors.New("remote: build request of version 0")
	}
	for e, w := range tk.Borrows {
		if w >= tk.Version {
			return geo, tk, nil, fmt.Errorf("remote: build request of v%d borrows %v from v%d", tk.Version, e, w)
		}
	}
	b = b[end:]
	if len(b) < 4 {
		return geo, tk, nil, errors.New("remote: build request truncated")
	}
	n = int64(binary.LittleEndian.Uint32(b))
	if b = b[4:]; n > int64(len(b)/placedLen) {
		return geo, tk, nil, fmt.Errorf("remote: build request claims %d pieces in %d bytes", n, len(b))
	}
	placed := make([]segtree.Placed, n)
	for i := range placed {
		e := extent.Extent{Offset: int64(binary.LittleEndian.Uint64(b)), Length: int64(binary.LittleEndian.Uint64(b[8:]))}
		if e.Offset < 0 || e.Length <= 0 || e.Offset > math.MaxInt64-e.Length {
			return geo, tk, nil, fmt.Errorf("remote: build request piece %d at %d of length %d", i, e.Offset, e.Length)
		}
		ref, _ := chunk.DecodeRef(b[16:])
		placed[i], b = segtree.Placed{Ext: e, Ref: ref}, b[placedLen:]
	}
	if len(b) != 0 {
		return geo, tk, nil, fmt.Errorf("remote: %d bytes after a build request", len(b))
	}
	return geo, tk, placed, nil
}

// serveBuild answers a build: segtree's own Build over the metadata store,
// the reply the root key. What is wrong with the request, req, fails this
// op alone.
func (s *framedServer) serveBuild(w *replyWriter, h frameHeader, req []byte) error {
	if s.nodes == nil {
		return writeErrReply(w, errNoMetaRole)
	}
	geo, tk, placed, err := decodeBuild(req)
	var root segtree.NodeKey
	if err == nil {
		t := segtree.Tree{Blob: h.key.Blob, Geo: geo, Store: storeLists{s.nodes}}
		root, err = t.Build(tk.Version, placed, tk.Borrows)
	}
	if err != nil {
		return writeErrReply(w, err)
	}
	var key [segtree.NodeKeyLen]byte
	return s.writeOK(w, segtree.AppendKey(key[:0], root))
}

// storeLists gives a build on the meta role the list methods segtree
// looks for, as plain loops: the store is in memory, so no call waits on
// another and a goroutine per node would only cost.
type storeLists struct{ *metadata.Store }

// PutNodes stores nodes[i] under keys[i]. Every put is attempted; the
// error is that of the first in key order to fail.
func (s storeLists) PutNodes(blob uint64, keys []segtree.NodeKey, nodes []*segtree.Node) error {
	var first error
	for i, key := range keys {
		if err := s.PutNode(blob, key, nodes[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// GetNodes returns the node of every key, in key order; with try set, nil
// for a node not stored.
func (s storeLists) GetNodes(blob uint64, keys []segtree.NodeKey, try bool) ([]*segtree.Node, error) {
	nodes := make([]*segtree.Node, len(keys))
	for i, key := range keys {
		var err error
		if try {
			nodes[i], _, err = s.TryGetNode(blob, key)
		} else {
			nodes[i], err = s.GetNode(blob, key)
		}
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}
