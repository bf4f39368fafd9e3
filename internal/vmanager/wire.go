package vmanager

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/extent"
	"repro/internal/segtree"
)

// The binary forms of what a version manager is asked and answers over
// the wire — the request bodies and reply bodies of the framed plane's
// version-manager ops. All integers little-endian, as in segtree's node
// codec; every count is checked against the bytes that remain before
// anything is allocated for it, and a decoder takes exactly one
// encoding, nothing after it.
//
//	extent:    offset i64, length i64 — neither negative, the end within int64
//	extents:   count u32, count extents
//	key:       version u64, offset i64, size i64 (segtree.NodeKey)
//	geometry:  capacity i64, page i64
//	ticket:    version u64, count u32, count × (extent, version u64),
//	           the borrows in extent order
//	snapshot:  version u64, root key, size i64
//	versions:  count u32, count × u64
//	gc info:   published u64, reclaimed u64, retained versions, pinned
//	           versions, count u32, count × (version u64, root key, size i64)

const (
	extentLen  = 16
	keyLen     = 24
	borrowLen  = extentLen + 8
	pendingLen = 8 + keyLen + 8
)

var errTruncated = errors.New("vmanager: encoding truncated")

// AppendExtents appends l's binary form to buf.
func AppendExtents(buf []byte, l extent.List) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(l)))
	for _, e := range l {
		buf = appendExtent(buf, e)
	}
	return buf
}

// DecodeExtents decodes a list written by AppendExtents.
func DecodeExtents(b []byte) (extent.List, error) {
	r := wireReader{b: b}
	l := make(extent.List, r.count(extentLen))
	for i := range l {
		l[i] = r.extent()
	}
	return l, r.done()
}

// AppendNodeKey appends k's binary form to buf.
func AppendNodeKey(buf []byte, k segtree.NodeKey) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, k.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(k.Offset))
	return binary.LittleEndian.AppendUint64(buf, uint64(k.Size))
}

// DecodeNodeKey decodes a key written by AppendNodeKey.
func DecodeNodeKey(b []byte) (segtree.NodeKey, error) {
	r := wireReader{b: b}
	k := r.key()
	return k, r.done()
}

// AppendGeometry appends g's binary form to buf.
func AppendGeometry(buf []byte, g segtree.Geometry) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Capacity))
	return binary.LittleEndian.AppendUint64(buf, uint64(g.Page))
}

// DecodeGeometry decodes a geometry written by AppendGeometry.
func DecodeGeometry(b []byte) (segtree.Geometry, error) {
	r := wireReader{b: b}
	g := segtree.Geometry{Capacity: r.i64(), Page: r.i64()}
	return g, r.done()
}

// AppendTicket appends t's binary form to buf.
func AppendTicket(buf []byte, t Ticket) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, t.Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Borrows)))
	for _, e := range slices.SortedFunc(maps.Keys(t.Borrows), compareExtents) {
		buf = appendExtent(buf, e)
		buf = binary.LittleEndian.AppendUint64(buf, t.Borrows[e])
	}
	return buf
}

// DecodeTicket decodes a ticket written by AppendTicket. Its Borrows
// map is never nil.
func DecodeTicket(b []byte) (Ticket, error) {
	r := wireReader{b: b}
	t := Ticket{Version: r.u64()}
	n := r.count(borrowLen)
	t.Borrows = make(map[extent.Extent]uint64, n)
	for range n {
		e := r.extent()
		t.Borrows[e] = r.u64()
	}
	return t, r.done()
}

// AppendSnapshotInfo appends s's binary form to buf.
func AppendSnapshotInfo(buf []byte, s SnapshotInfo) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, s.Version)
	buf = AppendNodeKey(buf, s.Root)
	return binary.LittleEndian.AppendUint64(buf, uint64(s.Size))
}

// DecodeSnapshotInfo decodes a snapshot written by AppendSnapshotInfo.
func DecodeSnapshotInfo(b []byte) (SnapshotInfo, error) {
	r := wireReader{b: b}
	s := SnapshotInfo{Version: r.u64(), Root: r.key(), Size: r.i64()}
	return s, r.done()
}

// AppendVersions appends vs's binary form to buf.
func AppendVersions(buf []byte, vs []uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs)))
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	return buf
}

// DecodeVersions decodes a list written by AppendVersions; an empty
// list decodes to nil.
func DecodeVersions(b []byte) ([]uint64, error) {
	r := wireReader{b: b}
	vs := r.versions()
	return vs, r.done()
}

// AppendGCInfo appends g's binary form to buf.
func AppendGCInfo(buf []byte, g GCInfo) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, g.Published)
	buf = binary.LittleEndian.AppendUint64(buf, g.Reclaimed)
	buf = AppendVersions(buf, g.Retained)
	buf = AppendVersions(buf, g.Pinned)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(g.Pending)))
	for _, p := range g.Pending {
		buf = binary.LittleEndian.AppendUint64(buf, p.Version)
		buf = AppendNodeKey(buf, p.Root)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Size))
	}
	return buf
}

// DecodeGCInfo decodes an info written by AppendGCInfo; empty lists
// decode to nil.
func DecodeGCInfo(b []byte) (GCInfo, error) {
	r := wireReader{b: b}
	g := GCInfo{Published: r.u64(), Reclaimed: r.u64(), Retained: r.versions(), Pinned: r.versions()}
	if n := r.count(pendingLen); n > 0 {
		g.Pending = make([]PendingDrop, n)
		for i := range g.Pending {
			g.Pending[i] = PendingDrop{Version: r.u64(), Root: r.key(), Size: r.i64()}
		}
	}
	return g, r.done()
}

func appendExtent(buf []byte, e extent.Extent) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Offset))
	return binary.LittleEndian.AppendUint64(buf, uint64(e.Length))
}

func compareExtents(a, b extent.Extent) int {
	if c := cmp.Compare(a.Offset, b.Offset); c != 0 {
		return c
	}
	return cmp.Compare(a.Length, b.Length)
}

// wireReader reads the fields of one encoding off b. The first problem
// is kept in err, and every read after it yields zero values, so a
// decoder reads straight through and checks once, at done.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *wireReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) i64() int64 { return int64(r.u64()) }

// count reads an element count and refuses one that the rest of the
// encoding cannot hold at size bytes an element.
func (r *wireReader) count(size int) int {
	if len(r.b) < 4 {
		r.fail(errTruncated)
		return 0
	}
	n := int(binary.LittleEndian.Uint32(r.b))
	r.b = r.b[4:]
	if n > len(r.b)/size {
		r.fail(fmt.Errorf("vmanager: encoding claims %d entries of %d bytes in %d", n, size, len(r.b)))
		return 0
	}
	return n
}

func (r *wireReader) extent() extent.Extent {
	e := extent.Extent{Offset: r.i64(), Length: r.i64()}
	if e.Offset < 0 || e.Length < 0 || e.Offset > math.MaxInt64-e.Length {
		r.fail(fmt.Errorf("vmanager: extent at %d of length %d out of range", e.Offset, e.Length))
		return extent.Extent{}
	}
	return e
}

func (r *wireReader) key() segtree.NodeKey {
	return segtree.NodeKey{Version: r.u64(), Offset: r.i64(), Size: r.i64()}
}

func (r *wireReader) versions() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = r.u64()
	}
	return vs
}

// done is the decode's outcome: its first problem, or bytes left over.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("vmanager: %d bytes after the encoding", len(r.b))
	}
	return r.err
}
