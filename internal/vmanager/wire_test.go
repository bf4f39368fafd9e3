package vmanager

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"repro/internal/extent"
	"repro/internal/segtree"
)

func TestWireRoundTrips(t *testing.T) {
	key := segtree.NodeKey{Version: 4, Offset: 1 << 12, Size: 1 << 20}
	ext := extent.List{{Offset: 0, Length: 100}, {Offset: math.MaxInt64 - 5, Length: 5}}
	tk := Ticket{Version: 9, Borrows: map[extent.Extent]uint64{{Offset: 4096, Length: 4096}: 2, {Offset: 0, Length: 4096}: 0}}
	snap := SnapshotInfo{Version: 3, Root: key, Size: 777}
	gc := GCInfo{Published: 8, Retained: []uint64{0, 8}, Pinned: []uint64{8}, Reclaimed: 2,
		Pending: []PendingDrop{{Version: 5, Root: key, Size: 1}, {Version: 6, Size: 2}}}
	for _, tc := range []struct {
		name string
		enc  []byte
		dec  func([]byte) (any, error)
		want any
	}{
		{"extents", AppendExtents(nil, ext), func(b []byte) (any, error) { return DecodeExtents(b) }, ext},
		{"no extents", AppendExtents(nil, nil), func(b []byte) (any, error) { return DecodeExtents(b) }, extent.List{}},
		{"key", AppendNodeKey(nil, key), func(b []byte) (any, error) { return DecodeNodeKey(b) }, key},
		{"geometry", AppendGeometry(nil, segtree.Geometry{Capacity: 1 << 30, Page: 1 << 16}),
			func(b []byte) (any, error) { return DecodeGeometry(b) }, segtree.Geometry{Capacity: 1 << 30, Page: 1 << 16}},
		{"ticket", AppendTicket(nil, tk), func(b []byte) (any, error) { return DecodeTicket(b) }, tk},
		{"ticket without borrows", AppendTicket(nil, Ticket{Version: 1}), func(b []byte) (any, error) { return DecodeTicket(b) },
			Ticket{Version: 1, Borrows: map[extent.Extent]uint64{}}},
		{"snapshot", AppendSnapshotInfo(nil, snap), func(b []byte) (any, error) { return DecodeSnapshotInfo(b) }, snap},
		{"versions", AppendVersions(nil, []uint64{0, 1, 1 << 60}), func(b []byte) (any, error) { return DecodeVersions(b) }, []uint64{0, 1, 1 << 60}},
		{"no versions", AppendVersions(nil, []uint64{}), func(b []byte) (any, error) { return DecodeVersions(b) }, []uint64(nil)},
		{"gc info", AppendGCInfo(nil, gc), func(b []byte) (any, error) { return DecodeGCInfo(b) }, gc},
		{"empty gc info", AppendGCInfo(nil, GCInfo{}), func(b []byte) (any, error) { return DecodeGCInfo(b) }, GCInfo{}},
	} {
		got, err := tc.dec(tc.enc)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
		// Every proper prefix, and the encoding with a byte more, is refused.
		for n := 0; n < len(tc.enc); n++ {
			if _, err := tc.dec(tc.enc[:n]); err == nil {
				t.Errorf("%s: a %d-byte prefix of %d decoded", tc.name, n, len(tc.enc))
			}
		}
		if _, err := tc.dec(append(tc.enc[:len(tc.enc):len(tc.enc)], 0)); err == nil {
			t.Errorf("%s: a trailing byte decoded", tc.name)
		}
	}
}

// TestWireBorrowsAreSorted: a ticket's borrows are encoded in extent
// order, so equal tickets have equal bytes whatever the map's order.
func TestWireBorrowsAreSorted(t *testing.T) {
	borrows := map[extent.Extent]uint64{}
	for i := int64(0); i < 64; i++ {
		borrows[extent.Extent{Offset: (i * 37 % 64) * 4096, Length: 4096}] = uint64(i)
	}
	first := AppendTicket(nil, Ticket{Version: 1, Borrows: borrows})
	for i := 0; i < 20; i++ {
		if again := AppendTicket(nil, Ticket{Version: 1, Borrows: borrows}); string(again) != string(first) {
			t.Fatal("one ticket, two encodings")
		}
	}
	for i := 1; i < 64; i++ {
		prev := int64(binary.LittleEndian.Uint64(first[12+(i-1)*borrowLen:]))
		if off := int64(binary.LittleEndian.Uint64(first[12+i*borrowLen:])); off <= prev {
			t.Fatalf("borrow %d at %d after %d", i, off, prev)
		}
	}
}

// TestWireRefusesHostileCounts: counts the body cannot hold and extents
// out of range are refused before anything is allocated for them.
func TestWireRefusesHostileCounts(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cat := func(parts ...[]byte) (b []byte) {
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	for name, fail := range map[string]func() error{
		"extent count past the body": func() error { _, err := DecodeExtents(cat(u32(math.MaxUint32), u64(0), u64(1))); return err },
		"negative offset":            func() error { _, err := DecodeExtents(cat(u32(1), u64(math.MaxUint64), u64(1))); return err },
		"negative length":            func() error { _, err := DecodeExtents(cat(u32(1), u64(0), u64(1<<63))); return err },
		"extent end past int64":      func() error { _, err := DecodeExtents(cat(u32(1), u64(math.MaxInt64), u64(1))); return err },
		"borrows past the body":      func() error { _, err := DecodeTicket(cat(u64(1), u32(2), u64(0), u64(1), u64(0))); return err },
		"borrow out of range":        func() error { _, err := DecodeTicket(cat(u64(1), u32(1), u64(1<<63), u64(1), u64(0))); return err },
		"versions past the body":     func() error { _, err := DecodeVersions(cat(u32(1 << 30))); return err },
		"gc retained past the body": func() error {
			_, err := DecodeGCInfo(cat(u64(1), u64(0), u32(3), u64(0), u32(0), u32(0)))
			return err
		},
		"gc pending past the body": func() error {
			_, err := DecodeGCInfo(cat(u64(1), u64(0), u32(0), u32(0), u32(1<<20), u64(0)))
			return err
		},
	} {
		if fail() == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
