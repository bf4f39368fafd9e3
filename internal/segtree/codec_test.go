package segtree

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/extent"
)

// The two golden nodes: what the format is, byte for byte. A disk or a
// peer may hold these, so a change here is a format change.
var (
	goldenInner = &Node{
		Left:  NodeKey{Version: 3, Offset: 0, Size: 4096},
		Right: NodeKey{Version: 2, Offset: 4096, Size: 4096},
	}
	goldenLeaf = &Node{
		Leaf: true,
		Prev: NodeKey{Version: 1, Offset: 8192, Size: 1024},
		Frags: []Fragment{
			{Ext: extent.Extent{Offset: 8192, Length: 16}, Ref: chunk.Ref{Key: chunk.Key{Blob: 7, Version: 3, Index: 1}, Offset: 32, Length: 16}},
			{Ext: extent.Extent{Offset: 8300, Length: 5}, Ref: chunk.Ref{Key: chunk.Key{Blob: 7, Version: 3, Index: 2}, Length: 5, Replicas: []uint32{4, 258}}},
		},
	}
)

const (
	goldenInnerHex = "00" +
		"0300000000000000" + "0000000000000000" + "0010000000000000" +
		"0200000000000000" + "0010000000000000" + "0010000000000000"
	goldenLeafHex = "01" +
		"0100000000000000" + "0020000000000000" + "0004000000000000" + // prev
		"02000000" + // two fragments
		"0020000000000000" + "1000000000000000" + // extent [8192, +16)
		"0700000000000000" + "0300000000000000" + "01000000" + "2000000000000000" + "1000000000000000" + "00" + // ref, no replicas
		"6c20000000000000" + "0500000000000000" + // extent [8300, +5)
		"0700000000000000" + "0300000000000000" + "02000000" + "0000000000000000" + "0500000000000000" + "02" + "04000000" + "02010000"
)

func TestNodeCodecGoldenBytes(t *testing.T) {
	for name, tc := range map[string]struct {
		node *Node
		hex  string
	}{"inner": {goldenInner, goldenInnerHex}, "leaf": {goldenLeaf, goldenLeafHex}} {
		want, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendNode(nil, tc.node); !bytes.Equal(got, want) {
			t.Errorf("%s encodes to\n%x, want\n%x", name, got, want)
		}
		got, err := DecodeNode(want)
		if err != nil || !reflect.DeepEqual(got, tc.node) {
			t.Errorf("%s decodes to %+v, %v", name, got, err)
		}
		// Appending leaves what was there alone.
		if got := AppendNode([]byte("head"), tc.node); !bytes.Equal(got, append([]byte("head"), want...)) {
			t.Errorf("%s appended after a prefix: %x", name, got)
		}
	}
}

// randomLeaf builds a leaf of frags fragments, each ref naming replicas
// providers.
func randomLeaf(rng *rand.Rand, frags, replicas int, prev bool) *Node {
	n := &Node{Leaf: true}
	if prev {
		n.Prev = NodeKey{Version: 1 + rng.Uint64(), Offset: rng.Int63(), Size: rng.Int63()}
	}
	for i := 0; i < frags; i++ {
		f := Fragment{
			Ext: extent.Extent{Offset: rng.Int63(), Length: rng.Int63()},
			Ref: chunk.Ref{Key: chunk.Key{Blob: rng.Uint64(), Version: rng.Uint64(), Index: rng.Uint32()}, Offset: rng.Int63(), Length: rng.Int63()},
		}
		for j := 0; j < replicas; j++ {
			f.Ref.Replicas = append(f.Ref.Replicas, rng.Uint32())
		}
		n.Frags = append(n.Frags, f)
	}
	return n
}

// TestNodeCodecRoundTrip: every leaf shape — 0…n fragments, refs with
// no, one and the most replicas the count byte carries, with and without
// a back-pointer — and inner nodes survive encode → decode unchanged,
// and no strict prefix of an encoding decodes.
func TestNodeCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nodes := []*Node{
		{},
		{Left: NodeKey{Version: rng.Uint64(), Offset: rng.Int63(), Size: rng.Int63()}},
		{Left: NodeKey{Version: 1, Size: -1}, Right: NodeKey{Version: ^uint64(0), Offset: -1 << 63, Size: 1<<63 - 1}},
	}
	for frags := 0; frags <= 9; frags++ {
		for _, replicas := range []int{0, 1, 255} {
			for _, prev := range []bool{false, true} {
				nodes = append(nodes, randomLeaf(rng, frags, replicas, prev))
			}
		}
	}
	for _, n := range nodes {
		enc := AppendNode(nil, n)
		got, err := DecodeNode(enc)
		if err != nil || !reflect.DeepEqual(got, n) {
			t.Fatalf("round trip of %+v: %+v, %v", n, got, err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if cut > 300 && cut < len(enc)-300 {
				cut = len(enc) - 300 // the middle of a long encoding has no new shapes
			}
			if n, err := DecodeNode(enc[:cut]); err == nil {
				t.Fatalf("a %d-byte prefix of a %d-byte encoding decoded to %+v", cut, len(enc), n)
			}
		}
		if _, err := DecodeNode(append(enc, 0)); err == nil {
			t.Fatalf("an encoding with a trailing byte decoded")
		}
	}
	// Replica hints past the count byte's 255 are dropped, as
	// chunk.Ref.Marshal documents; the data the ref names is kept.
	long := randomLeaf(rng, 1, 300, false)
	got, err := DecodeNode(AppendNode(nil, long))
	if err != nil || len(got.Frags[0].Ref.Replicas) != 255 || !got.Frags[0].Ref.EqualData(long.Frags[0].Ref) {
		t.Fatalf("a 300-replica ref: %v", err)
	}
}

// TestDecodeNodeHostileBytes: lengths are checked against what remains
// before anything is allocated for them — the four-billion-fragment
// claim is refused, not attempted.
func TestDecodeNodeHostileBytes(t *testing.T) {
	leaf := func(count uint32, rest ...byte) []byte {
		b := append([]byte{kindLeaf}, make([]byte, nodeKeyLen)...)
		b = append(b, byte(count), byte(count>>8), byte(count>>16), byte(count>>24))
		return append(b, rest...)
	}
	oneFrag := AppendNode(nil, randomLeaf(rand.New(rand.NewSource(1)), 1, 2, false))
	overCount := bytes.Clone(oneFrag)
	overCount[len(overCount)-9] = 3 // the ref claims a third replica
	for name, tc := range map[string]struct {
		b    []byte
		want string
	}{
		"empty":                  {nil, "empty"},
		"unknown kind":           {[]byte{2}, "unknown node kind 2"},
		"short inner":            {make([]byte, 48), "inner node of 48 bytes"},
		"long inner":             {make([]byte, 50), "inner node of 50 bytes"},
		"leaf without a count":   {leaf(0)[:nodeKeyLen+3], "truncated"},
		"four billion fragments": {leaf(^uint32(0)), "claims 4294967295 fragments in 0 bytes"},
		"one more than fits":     {leaf(2, make([]byte, minFragLen+minFragLen-1)...), "claims 2 fragments"},
		"replica over-count":     {overCount, "replica set truncated"},
		"trailing after a leaf":  {append(bytes.Clone(oneFrag), 1, 2, 3), "3 trailing bytes"},
	} {
		n, err := DecodeNode(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: decoded %+v, error %v, want %q", name, n, err, tc.want)
		}
	}
}

// FuzzDecodeNode: arbitrary bytes never panic the decoder, never make it
// allocate beyond a small multiple of the input, and whatever decodes
// re-encodes to bytes that decode to the same node.
// The seed corpus (testdata/fuzz) is the two golden nodes and an empty
// leaf.
func FuzzDecodeNode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		n, err := DecodeNode(b)
		if err != nil {
			return
		}
		if max := len(b) / minFragLen; len(n.Frags) > max {
			t.Fatalf("%d fragments out of %d bytes", len(n.Frags), len(b))
		}
		for _, fr := range n.Frags {
			if len(fr.Ref.Replicas)*4 > len(b) {
				t.Fatalf("%d replicas out of %d bytes", len(fr.Ref.Replicas), len(b))
			}
		}
		again, err := DecodeNode(AppendNode(nil, n))
		if err != nil || !reflect.DeepEqual(again, n) {
			t.Fatalf("decode → encode → decode: %+v became %+v, %v", n, again, err)
		}
	})
}
