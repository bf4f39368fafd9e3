package remote

import (
	"bytes"
	"testing"

	"repro/internal/blob"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// TestReadTierOverRPC: a data node serving zone-local reads with the
// bounded cache reports its reader domain, locality counters and cache
// counters through the ReadTier RPC; a plain node reports the tier off.
func TestReadTierOverRPC(t *testing.T) {
	mgr := memPool(4, 2)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	router.SetReadLocality("zone0", true)
	router.SetReadCache(provider.NewReadCache(provider.ReadCacheConfig{MaxBytes: 1 << 20}))
	node, err := Listen("127.0.0.1:0", Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: router,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	addr := node.Addr()
	c := dialClient(t, Endpoints{VM: addr, Meta: addr, Data: addr})

	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("tier"), 1024)
	v, err := b.Write(0, payload, blob.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Read twice. Both reads reach a replica: a remote reader's gets are
	// stream reads, which bypass the server-side cache (the cache's own
	// fill-then-hit behaviour is internal/provider's to test, in-process).
	for i := 0; i < 2; i++ {
		got, err := b.ReadAt(v, 0, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("read %d corrupt", i)
		}
	}

	rt, err := opsOf(c).ReadTier()
	if err != nil {
		t.Fatal(err)
	}
	if rt.LocalDomain != "zone0" {
		t.Fatalf("reader domain %q, want zone0", rt.LocalDomain)
	}
	if !rt.CacheEnabled {
		t.Fatal("cache reported off")
	}
	if got := rt.Locality.LocalReads + rt.Locality.RemoteReads; got < 2 {
		t.Fatalf("locality counted %d replica reads, want both", got)
	}

	// A node without the tier answers too, reporting it off.
	_, ep := startNode(t)
	plain := dialClient(t, ep)
	rt2, err := opsOf(plain).ReadTier()
	if err != nil {
		t.Fatal(err)
	}
	if rt2.LocalDomain != "" || rt2.CacheEnabled {
		t.Fatalf("plain node reports tier on: %+v", rt2)
	}
}
