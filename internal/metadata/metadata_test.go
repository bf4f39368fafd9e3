package metadata

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/segtree"
)

func leafNode(fill int) *segtree.Node {
	return &segtree.Node{
		Leaf: true,
		Frags: []segtree.Fragment{{
			Ext: extent.Extent{Offset: int64(fill), Length: 8},
			Ref: chunk.Ref{Key: chunk.Key{Blob: 1, Version: uint64(fill)}, Length: 8},
		}},
	}
}

func TestPutGetNode(t *testing.T) {
	s := NewStore(4, iosim.CostModel{})
	key := segtree.NodeKey{Version: 1, Offset: 0, Size: 64}
	if err := s.PutNode(1, key, leafNode(3)); err != nil {
		t.Fatal(err)
	}
	n, err := s.GetNode(1, key)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Leaf || len(n.Frags) != 1 || n.Frags[0].Ext.Offset != 3 {
		t.Fatalf("node = %+v", n)
	}
	if s.Count() != 1 {
		t.Fatalf("Count = %d", s.Count())
	}
}

func TestGetMissing(t *testing.T) {
	s := NewStore(2, iosim.CostModel{})
	_, err := s.GetNode(1, segtree.NodeKey{Version: 9})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	n, ok, err := s.TryGetNode(1, segtree.NodeKey{Version: 9})
	if n != nil || ok || err != nil {
		t.Fatalf("TryGetNode = %v %v %v", n, ok, err)
	}
}

func TestDoublePutFails(t *testing.T) {
	s := NewStore(2, iosim.CostModel{})
	key := segtree.NodeKey{Version: 1, Size: 64}
	if err := s.PutNode(1, key, leafNode(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(1, key, leafNode(2)); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

// TestIdenticalRePutIsNoOp: a transport that re-sends a put it saw no
// answer to must find the store agreeing, whether the second copy is the
// same value or its twin off the wire (where empty and nil slices are
// one thing); anything else under the key is still ErrExists, and what
// is stored never changes.
func TestIdenticalRePutIsNoOp(t *testing.T) {
	s := NewStore(2, iosim.CostModel{})
	key := segtree.NodeKey{Version: 1, Size: 64}
	for name, n := range map[string]*segtree.Node{
		"leaf":       leafNode(1),
		"empty leaf": {Leaf: true, Prev: segtree.NodeKey{Version: 1, Size: 64}},
		"inner":      {Left: segtree.NodeKey{Version: 1, Size: 32}},
	} {
		key.Version++
		if err := s.PutNode(1, key, n); err != nil {
			t.Fatal(err)
		}
		twin, err := segtree.DecodeNode(segtree.AppendNode(nil, n))
		if err != nil {
			t.Fatal(err)
		}
		twin.Frags = append([]segtree.Fragment{}, twin.Frags...)
		for _, again := range []*segtree.Node{n, twin} {
			if err := s.PutNode(1, key, again); err != nil {
				t.Errorf("%s: identical re-put: %v", name, err)
			}
		}
		if err := s.PutNode(1, key, leafNode(9)); !errors.Is(err, ErrExists) {
			t.Errorf("%s: different content under a stored key: %v", name, err)
		}
		if got, err := s.GetNode(1, key); err != nil || !reflect.DeepEqual(got, n) {
			t.Errorf("%s: stored node after the re-puts: %+v, %v", name, got, err)
		}
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
}

func TestBlobsAreIsolated(t *testing.T) {
	s := NewStore(2, iosim.CostModel{})
	key := segtree.NodeKey{Version: 1, Size: 64}
	if err := s.PutNode(1, key, leafNode(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutNode(2, key, leafNode(2)); err != nil {
		t.Fatal(err)
	}
	n1, _ := s.GetNode(1, key)
	n2, _ := s.GetNode(2, key)
	if n1.Frags[0].Ext.Offset == n2.Frags[0].Ext.Offset {
		t.Fatal("blobs must not share nodes")
	}
}

func TestNodesAreDeepCopied(t *testing.T) {
	s := NewStore(1, iosim.CostModel{})
	key := segtree.NodeKey{Version: 1, Size: 64}
	orig := leafNode(1)
	if err := s.PutNode(1, key, orig); err != nil {
		t.Fatal(err)
	}
	orig.Frags[0].Ext.Offset = 99 // caller mutates after put
	got, _ := s.GetNode(1, key)
	if got.Frags[0].Ext.Offset != 1 {
		t.Fatal("store aliased caller slice")
	}
	got.Frags[0].Ext.Offset = 77 // reader mutates
	got2, _ := s.GetNode(1, key)
	if got2.Frags[0].Ext.Offset != 1 {
		t.Fatal("store aliased reader slice")
	}
}

func TestShardingDistributes(t *testing.T) {
	s := NewStore(4, iosim.CostModel{})
	for v := uint64(1); v <= 64; v++ {
		key := segtree.NodeKey{Version: v, Offset: int64(v) * 64, Size: 64}
		if err := s.PutNode(1, key, leafNode(int(v))); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(s.shards))
	}
	nonEmpty := 0
	for _, m := range s.Meters() {
		if m.Stats().Ops > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 3 {
		t.Fatalf("only %d shards used; hashing not distributing", nonEmpty)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore(4, iosim.CostModel{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := segtree.NodeKey{Version: uint64(g*1000 + i + 1), Size: 64}
				if err := s.PutNode(1, key, leafNode(i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if _, err := s.GetNode(1, key); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Count() != 400 {
		t.Fatalf("Count = %d, want 400", s.Count())
	}
}

func TestMinimumOneShard(t *testing.T) {
	s := NewStore(0, iosim.CostModel{})
	if len(s.shards) != 1 {
		t.Fatalf("%d shards, want 1", len(s.shards))
	}
}

func ExampleStore() {
	s := NewStore(2, iosim.CostModel{})
	key := segtree.NodeKey{Version: 1, Offset: 0, Size: 128}
	_ = s.PutNode(7, key, &segtree.Node{Left: segtree.NodeKey{Version: 1, Size: 64}})
	n, _ := s.GetNode(7, key)
	fmt.Println(n.Leaf, n.Left.Version)
	// Output: false 1
}
