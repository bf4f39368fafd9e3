package remote

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// memPool builds n unmetered in-memory providers in the given number of
// failure domains.
func memPool(n, domains int) *provider.Manager {
	mgr, _, err := provider.NewURLPoolInDomains("mem://", n, domains, iosim.CostModel{}, false)
	if err != nil {
		panic(err) // a mem:// store always opens
	}
	return mgr
}

// faultPool is memPool on one domain with every store wrapped in a
// chunk.FaultStore, the handles returned by provider index.
func faultPool(n int) (*provider.Manager, []*chunk.FaultStore) {
	mgr, faults, err := provider.NewURLPoolInDomains("mem://", n, 0, iosim.CostModel{}, true)
	if err != nil {
		panic(err) // a mem:// store always opens
	}
	return mgr, faults
}

// startNode boots a single node hosting all roles on a loopback port.
func startNode(t *testing.T) (*Node, Endpoints) {
	t.Helper()
	mgr := memPool(3, 0)
	node, err := Listen("127.0.0.1:0", Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	addr := node.Addr()
	return node, Endpoints{VM: addr, Meta: addr, Data: addr}
}

func dialClient(t *testing.T, ep Endpoints) *Client {
	t.Helper()
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Roles{}); err == nil {
		t.Fatal("empty roles must fail")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialFramed(Endpoints{VM: "127.0.0.1:1", Meta: "127.0.0.1:1", Data: "127.0.0.1:1"}); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

func TestRemoteBlobRoundTrip(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("bytes over tcp")
	v, err := b.Write(1000, data, blob.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(v, 1000, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read = %q", got)
	}
}

func TestRemoteNonContiguousAtomicWrite(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	l := extent.List{{Offset: 0, Length: 300}, {Offset: 4096, Length: 300}}
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each writer uses its own connection, like a real client.
			cw, err := DialFramed(ep)
			if err != nil {
				t.Error(err)
				return
			}
			defer cw.Close()
			bw, err := blob.Open(cw.Services(), 1)
			if err != nil {
				t.Error(err)
				return
			}
			buf := bytes.Repeat([]byte{byte(w + 1)}, int(l.TotalLength()))
			vec, _ := extent.NewVec(l, buf)
			if _, err := bw.WriteList(vec, blob.WriteOptions{}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	got, _, err := b.ReadLatest(l)
	if err != nil {
		t.Fatal(err)
	}
	first := got[0]
	for i, x := range got {
		if x != first {
			t.Fatalf("atomicity violated over RPC: byte %d = %d, want %d", i, x, first)
		}
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	// Reading an unknown blob must surface the server-side error text.
	_, err := c.LatestPublished(42)
	if err == nil || !strings.Contains(err.Error(), "unknown blob") {
		t.Fatalf("err = %v", err)
	}
	// Unknown chunk.
	_, err = c.Get(chunk.Key{Blob: 9}, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("chunk err = %v", err)
	}
}

func TestRemoteMetadataNodes(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	key := segtree.NodeKey{Version: 1, Offset: 0, Size: 512}
	n := &segtree.Node{Leaf: true, Frags: []segtree.Fragment{{
		Ext: extent.Extent{Offset: 0, Length: 8},
		Ref: chunk.Ref{Key: chunk.Key{Blob: 1, Version: 1}, Length: 8},
	}}}
	if err := c.PutNode(1, key, n); err != nil {
		t.Fatal(err)
	}
	got, err := c.GetNode(1, key)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Leaf || len(got.Frags) != 1 || got.Frags[0].Ext.Length != 8 {
		t.Fatalf("node = %+v", got)
	}
	_, found, err := c.TryGetNode(1, segtree.NodeKey{Version: 99, Size: 512})
	if err != nil || found {
		t.Fatalf("TryGetNode = %v %v", found, err)
	}
}

func TestSplitRoleNodes(t *testing.T) {
	// Version manager, metadata and data on three separate processes.
	vmNode, err := Listen("127.0.0.1:0", Roles{VM: vmanager.New(iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer vmNode.Close()
	metaNode, err := Listen("127.0.0.1:0", Roles{Meta: metadata.NewStore(4, iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer metaNode.Close()
	mgr := memPool(2, 0)
	dataNode, err := Listen("127.0.0.1:0", Roles{Data: provider.NewRouter(mgr)})
	if err != nil {
		t.Fatal(err)
	}
	defer dataNode.Close()

	c, err := DialFramed(Endpoints{VM: vmNode.Addr(), Meta: metaNode.Addr(), Data: dataNode.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 14, Page: 256})
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(0, []byte("split roles"), blob.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(v, 0, 11)
	if err != nil || string(got) != "split roles" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestVersionsOverRPC(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 14, Page: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Write(int64(i*100), []byte{byte(i)}, blob.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := b.Versions()
	if err != nil || len(vs) != 4 {
		t.Fatalf("versions = %v, %v", vs, err)
	}
	geo, err := c.Geometry(1)
	if err != nil || geo.Page != 256 {
		t.Fatalf("geometry = %+v, %v", geo, err)
	}
}

func TestReplicatedDataNodeOverRPC(t *testing.T) {
	// A data node with R=2: writes return replica sets, a provider
	// killed over RPC leaves every version readable via failover, and
	// the repair RPC restores full degree so a second loss is survivable.
	mgr := memPool(4, 0)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
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

	ids, err := c.Put(chunk.Key{Blob: 7}, []byte("two copies"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("replica set over RPC = %v", ids)
	}

	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 2000)
	var versions []uint64
	for i := 0; i < 4; i++ {
		v, err := b.Write(int64(i)*1500, payload, blob.WriteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
	}

	if err := c.SetProviderDown(0, true); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		got, err := b.ReadAt(v, int64(v-1)*1500, 2000)
		if err != nil {
			t.Fatalf("degraded read of v%d: %v", v, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("degraded read of v%d corrupt", v)
		}
	}

	st, err := opsOf(c).Repair()
	if err != nil {
		t.Fatal(err)
	}
	if st.Degraded == 0 || st.Repaired != st.Degraded || st.Lost != 0 {
		t.Fatalf("repair over RPC: %+v", st)
	}
	// Full degree is restored: losing a second provider still leaves
	// every version readable.
	if err := c.SetProviderDown(1, true); err != nil {
		t.Fatal(err)
	}
	for _, v := range versions {
		if _, err := b.ReadAt(v, int64(v-1)*1500, 2000); err != nil {
			t.Fatalf("read of v%d after repair + second loss: %v", v, err)
		}
	}
	// Unknown provider id surfaces the server-side error.
	if err := c.SetProviderDown(99, true); err == nil {
		t.Fatal("SetProviderDown(99) must fail")
	}
}

func TestAbortOverRPC(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	if err := c.CreateBlob(1, segtree.Geometry{Capacity: 1 << 14, Page: 256}); err != nil {
		t.Fatal(err)
	}
	tk, err := c.AssignTicket(1, extent.List{{Offset: 0, Length: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(1, tk.Version); err != nil {
		t.Fatal(err)
	}
	info, err := c.LatestPublished(1)
	if err != nil || info.Version != tk.Version {
		t.Fatalf("aborted version not published: %+v, %v", info, err)
	}
	// Aborting twice must surface the server-side error.
	if err := c.Abort(1, tk.Version); err == nil {
		t.Fatal("double abort must fail")
	}
}

func TestSelfHealNodeOverRPC(t *testing.T) {
	// A data node running the self-healing loop: health and scrub RPCs
	// report the error-driven detector's state, and a synchronous scrub
	// pass repairs a lost provider with no repair RPC ever issued.
	mgr, faults := faultPool(4)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	health := provider.NewHealthMonitor(mgr, provider.HealthConfig{Threshold: 2})
	router.SetHealthMonitor(health)
	healer := core.NewHealer(router, health, core.HealerConfig{})
	router.SetDegradedHandler(healer.EnqueueRepair)

	node, err := Listen("127.0.0.1:0", Roles{
		VM:     vmanager.New(iosim.CostModel{}),
		Meta:   metadata.NewStore(2, iosim.CostModel{}),
		Data:   router,
		Health: health,
		Healer: healer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	addr := node.Addr()
	c := dialClient(t, Endpoints{VM: addr, Meta: addr, Data: addr})

	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("h"), 1500)
	var versions []uint64
	for i := 0; i < 4; i++ {
		v, err := b.Write(int64(i)*1500, payload, blob.WriteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		versions = append(versions, v)
	}

	sts, err := opsOf(c).Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 4 || sts[0].State != provider.Live {
		t.Fatalf("health snapshot = %+v", sts)
	}

	// Kill a store behind the node's back, then force a synchronous
	// scrub pass over RPC: detection and re-replication both happen
	// server-side.
	faults[2].SetDown(true)
	scrub, err := opsOf(c).Scrub(true)
	if err != nil {
		t.Fatal(err)
	}
	if scrub.ScrubPasses == 0 || scrub.Repaired == 0 || scrub.QueueLen != 0 {
		t.Fatalf("sync scrub over RPC: %+v", scrub)
	}
	if router.UnderReplicated() != 0 {
		t.Fatalf("%d chunks still degraded after RPC scrub", router.UnderReplicated())
	}
	sts, err = opsOf(c).Health()
	if err != nil {
		t.Fatal(err)
	}
	if sts[2].State != provider.Down {
		t.Fatalf("store-level kill not detected over RPC: %+v", sts[2])
	}
	// Async form just reports counters.
	again, err := opsOf(c).Scrub(false)
	if err != nil {
		t.Fatal(err)
	}
	if again.ScrubbedChunks < scrub.ScrubbedChunks {
		t.Fatalf("async scrub stats went backward: %+v then %+v", scrub, again)
	}
	// Every version remains readable after the autonomous repair.
	for _, v := range versions {
		if _, err := b.ReadAt(v, int64(v-1)*1500, 1500); err != nil {
			t.Fatalf("read v%d after self-heal: %v", v, err)
		}
	}
}

func TestSelfHealRPCsRequireHealer(t *testing.T) {
	mgr := memPool(2, 0)
	node, err := Listen("127.0.0.1:0", Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	addr := node.Addr()
	c := dialClient(t, Endpoints{VM: addr, Meta: addr, Data: addr})
	if _, err := opsOf(c).Health(); err == nil {
		t.Fatal("Health RPC on a non-self-heal node must fail")
	}
	if _, err := opsOf(c).Scrub(false); err == nil {
		t.Fatal("Scrub RPC on a non-self-heal node must fail")
	}
}
