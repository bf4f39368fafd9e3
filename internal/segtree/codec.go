package segtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/chunk"
	"repro/internal/extent"
)

// The binary form of a node — what the wire carries and what a disk or
// a peer may hold. All integers little-endian, matching chunk.Ref:
//
//	key:      version u64, offset i64, size i64                (24 bytes)
//
// The key's form is also the one every other encoding of a key takes:
// the version manager's Complete body, SnapshotInfo and GCInfo, and the
// walk's request and reply bodies.
//
//	inner:    kind u8 = 0, left key, right key                 (49 bytes)
//	leaf:     kind u8 = 1, prev key, count u32, count fragments
//	fragment: extent offset i64, extent length i64, then the ref in
//	          chunk.Ref.Append's form                         (52 bytes)
//
// A ref names no providers: placement is the router's alone.
const (
	kindInner = 0
	kindLeaf  = 1

	fragLen = 16 + chunk.RefLen
)

// NodeKeyLen is the length of a node key's binary form.
const NodeKeyLen = 24

// AppendKey appends k's binary form to buf.
func AppendKey(buf []byte, k NodeKey) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, k.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k.Offset))
	return binary.LittleEndian.AppendUint64(buf, uint64(k.Size))
}

// DecodeKey reads the key at the head of b, which holds NodeKeyLen bytes
// or more.
func DecodeKey(b []byte) NodeKey {
	return NodeKey{
		Version: binary.LittleEndian.Uint64(b[0:]),
		Offset:  int64(binary.LittleEndian.Uint64(b[8:])),
		Size:    int64(binary.LittleEndian.Uint64(b[16:])),
	}
}

// AppendNode appends n's binary form to buf. Only the fields of n's
// kind are encoded: child keys of an inner node, the fragments and the
// back-pointer of a leaf.
func AppendNode(buf []byte, n *Node) []byte {
	if !n.Leaf {
		buf = slices.Grow(buf, 1+2*NodeKeyLen)
		buf = append(buf, kindInner)
		buf = AppendKey(buf, n.Left)
		return AppendKey(buf, n.Right)
	}
	buf = slices.Grow(buf, 1+NodeKeyLen+4+len(n.Frags)*fragLen)
	buf = append(buf, kindLeaf)
	buf = AppendKey(buf, n.Prev)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n.Frags)))
	for _, f := range n.Frags {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Ext.Offset))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Ext.Length))
		buf = f.Ref.Append(buf)
	}
	return buf
}

// DecodeNode decodes a node written by AppendNode. b must hold the node
// and nothing else. The bytes may come from anywhere: every length is
// checked against what remains before anything is allocated for it, so
// a decode never allocates more than a small multiple of len(b). A
// leaf without fragments decodes to nil Frags.
func DecodeNode(b []byte) (*Node, error) {
	if len(b) == 0 {
		return nil, errors.New("segtree: empty node encoding")
	}
	kind, b := b[0], b[1:]
	switch kind {
	case kindInner:
		if len(b) != 2*NodeKeyLen {
			return nil, fmt.Errorf("segtree: inner node of %d bytes, want %d", 1+len(b), 1+2*NodeKeyLen)
		}
		return &Node{Left: DecodeKey(b), Right: DecodeKey(b[NodeKeyLen:])}, nil
	case kindLeaf:
		if len(b) < NodeKeyLen+4 {
			return nil, fmt.Errorf("segtree: leaf node truncated at %d bytes", 1+len(b))
		}
		n := &Node{Leaf: true, Prev: DecodeKey(b)}
		count := int64(binary.LittleEndian.Uint32(b[NodeKeyLen:]))
		if b = b[NodeKeyLen+4:]; int64(len(b)) != count*fragLen {
			return nil, fmt.Errorf("segtree: leaf node of %d fragments holds %d bytes of them, want %d", count, len(b), count*fragLen)
		}
		if count > 0 {
			n.Frags = make([]Fragment, count)
		}
		for i := range n.Frags {
			ref, _ := chunk.DecodeRef(b[16:])
			n.Frags[i] = Fragment{
				Ext: extent.Extent{
					Offset: int64(binary.LittleEndian.Uint64(b[0:])),
					Length: int64(binary.LittleEndian.Uint64(b[8:])),
				},
				Ref: ref,
			}
			b = b[fragLen:]
		}
		return n, nil
	}
	return nil, fmt.Errorf("segtree: unknown node kind %d", kind)
}
