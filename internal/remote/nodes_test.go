package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

func leafNode(tag uint64) *segtree.Node {
	return &segtree.Node{Leaf: true, Frags: []segtree.Fragment{{
		Ext: extent.Extent{Offset: int64(tag), Length: 8},
		Ref: chunk.Ref{Key: chunk.Key{Blob: 1, Version: tag}, Length: 8},
	}}}
}

// nodeOutcome is what one NodeStore call returned, flattened so a
// remote client and a local store can be compared.
type nodeOutcome struct {
	Node  *segtree.Node
	Found bool
	Err   string
}

// runNodeScript drives one goroutine's worth of mixed ops against s.
// Every key belongs to the goroutine, so each outcome is the same
// whatever the interleaving with other goroutines.
func runNodeScript(s segtree.NodeStore, g int) []nodeOutcome {
	var out []nodeOutcome
	record := func(n *segtree.Node, found bool, err error) {
		o := nodeOutcome{Node: n, Found: found}
		if err != nil {
			o.Err = err.Error()
		}
		out = append(out, o)
	}
	for i := 0; i < 6; i++ {
		key := segtree.NodeKey{Version: uint64(g + 1), Offset: int64(i) * 512, Size: 512}
		n, found, err := s.TryGetNode(1, key)
		record(n, found, err) // not stored yet: no error
		record(nil, false, s.PutNode(1, key, leafNode(uint64(g*100+i))))
		record(nil, false, s.PutNode(1, key, leafNode(0))) // duplicate: fails alone
		n, err = s.GetNode(1, key)
		record(n, err == nil, err)
		n, found, err = s.TryGetNode(1, key)
		record(n, found, err)
		n, err = s.GetNode(1, segtree.NodeKey{Version: uint64(g + 1), Offset: int64(i) * 512, Size: 1024})
		record(n, err == nil, err) // never stored: an error
	}
	return out
}

// TestCombinedNodeCallsMatchStore: 64 goroutines of mixed put/get/tryget
// through one client return exactly what a local metadata.Store returns
// for the same calls, per-op errors included.
func TestCombinedNodeCallsMatchStore(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	const goroutines = 64
	got := make([][]nodeOutcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = runNodeScript(c, g)
		}(g)
	}
	wg.Wait()
	oracle := metadata.NewStore(2, iosim.CostModel{})
	for g := 0; g < goroutines; g++ {
		want := runNodeScript(oracle, g)
		if !reflect.DeepEqual(got[g], want) {
			for i := range want {
				if !reflect.DeepEqual(got[g][i], want[i]) {
					t.Fatalf("goroutine %d call %d: remote %+v, store %+v", g, i, got[g][i], want[i])
				}
			}
		}
	}
	if dup := got[0][2].Err; !strings.Contains(dup, metadata.ErrExists.Error()) {
		t.Fatalf("duplicate put: %q", dup)
	}
}

// TestNodeCallsCombineOnTheWire: a lone caller on an idle client costs
// exactly one Meta.Nodes request per op; 127 concurrent puts — one tile
// write's worth — share a handful.
func TestNodeCallsCombineOnTheWire(t *testing.T) {
	reg := metrics.NewRegistry()
	_, ep := startCountedNode(t, "mem://", reg)
	c := dialClient(t, ep)

	key := segtree.NodeKey{Version: 1, Size: 512}
	if err := c.PutNode(1, key, leafNode(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.GetNode(1, key); err != nil {
			t.Fatal(err)
		}
		if _, found, err := c.TryGetNode(1, key); err != nil || !found {
			t.Fatalf("TryGetNode = %v, %v", found, err)
		}
	}
	if n := metaWireRequests(reg); n != 11 {
		t.Fatalf("11 serial node calls made %v Meta.Nodes requests", n)
	}

	const puts = 127
	start := make(chan struct{})
	errs := make(chan error, puts)
	for i := 0; i < puts; i++ {
		go func(i int) {
			<-start
			errs <- c.PutNode(1, segtree.NodeKey{Version: 2, Offset: int64(i) * 512, Size: 512}, leafNode(uint64(i)))
		}(i)
	}
	close(start)
	for i := 0; i < puts; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := metaWireRequests(reg) - 11; n < 2 || n > 16 {
		t.Fatalf("%d concurrent puts made %v Meta.Nodes requests, want 2..16", puts, n)
	}
	snap := reg.Snapshot()
	for series, want := range map[string]float64{
		`bs_meta_node_ops_total{op="put"}`:    1 + puts,
		`bs_meta_node_ops_total{op="get"}`:    5,
		`bs_meta_node_ops_total{op="tryget"}`: 5,
		`bs_meta_batch_ops_sum`:               11 + puts,
		`bs_meta_batch_ops_count`:             metaWireRequests(reg),
	} {
		if snap[series] != want {
			t.Errorf("%s = %v, want %v", series, snap[series], want)
		}
	}
}

// TestNodesServerBoundsTheBatch: the request size and every op come off
// the wire. An oversize request is refused whole with the typed error
// and the connection stays usable; an op of unknown kind or a put
// without a node fails alone.
func TestNodesServerBoundsTheBatch(t *testing.T) {
	store := metadata.NewStore(2, iosim.CostModel{})
	srv := newMetaServer(store, nil)
	oversize := NodesArgs{Ops: make([]NodeOp, maxNodeBatch+1)}
	for i := range oversize.Ops {
		oversize.Ops[i] = NodeOp{Kind: nodePut, Blob: 1, Key: segtree.NodeKey{Version: 1, Offset: int64(i) * 512, Size: 512}, Node: leafNode(1)}
	}
	var reply NodesReply
	var tooLarge *BatchTooLargeError
	if err := srv.Nodes(&oversize, &reply); !errors.As(err, &tooLarge) || tooLarge.Ops != maxNodeBatch+1 || tooLarge.Max != maxNodeBatch {
		t.Fatalf("oversize request: %v", err)
	}
	if store.Count() != 0 {
		t.Fatalf("a refused request stored %d nodes", store.Count())
	}

	good := segtree.NodeKey{Version: 2, Size: 512}
	garbage := NodesArgs{Ops: []NodeOp{
		{}, // all zero
		{Kind: 200, Blob: 1, Key: good},
		{Kind: nodePut, Blob: 1, Key: segtree.NodeKey{Version: 3, Size: 512}}, // no node
		{Kind: nodePut, Blob: 1, Key: good, Node: leafNode(2)},
		{Kind: nodeGet, Blob: 1, Key: good},
	}}
	reply = NodesReply{}
	if err := srv.Nodes(&garbage, &reply); err != nil {
		t.Fatalf("garbage ops must fail one by one, not the request: %v", err)
	}
	for i, wantErr := range []string{"unknown node op kind 0", "unknown node op kind 200", "without a node", "", ""} {
		if got := reply.Results[i].Err; (wantErr == "") != (got == "") || !strings.Contains(got, wantErr) {
			t.Errorf("op %d: error %q, want %q", i, got, wantErr)
		}
	}
	if !reply.Results[4].Found || !reflect.DeepEqual(reply.Results[4].Node, leafNode(2)) {
		t.Errorf("the good ops beside the garbage: %+v", reply.Results[4])
	}

	// Over the wire the refusal is an ordinary RPC error.
	_, ep := startNode(t)
	raw, err := rpc.Dial("tcp", ep.Meta)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	err = raw.Call(metaService+".Nodes", &oversize, &reply)
	if err == nil || !strings.Contains(err.Error(), tooLarge.Error()) {
		t.Fatalf("oversize request over the wire: %v", err)
	}
	if err := raw.Call(metaService+".Nodes", &garbage, &reply); err != nil || reply.Results[3].Err != "" {
		t.Fatalf("the connection after a refused request: %v, %+v", err, reply.Results)
	}
}

// droppingMeta is a Meta service that parks every Nodes request until
// the test lets it answer, so the test can cut the connection with a
// batch on the wire.
type droppingMeta struct {
	entered chan int // ops of each request as it arrives
	answer  chan struct{}
}

func (d *droppingMeta) Nodes(a *NodesArgs, reply *NodesReply) error {
	d.entered <- len(a.Ops)
	<-d.answer
	reply.Results = make([]NodeResult, len(a.Ops))
	return nil
}

// TestNodeCallsSurviveADroppedConnection: when the metadata connection
// dies with a batch in flight and more ops queued behind it, every
// caller returns an error — the batch all the same one — nobody hangs,
// and nothing redials.
func TestNodeCallsSurviveADroppedConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	meta := &droppingMeta{entered: make(chan int, 4), answer: make(chan struct{})}
	srv := rpc.NewServer()
	if err := srv.RegisterName(metaService, meta); err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	conns := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			conns <- conn
			go srv.ServeConn(conn)
		}
	}()

	_, ep := startNode(t)
	ep.Meta = ln.Addr().String()
	c := dialClient(t, ep)
	serverSide := <-conns

	put := func(i int, errs chan<- error) {
		errs <- c.PutNode(1, segtree.NodeKey{Version: 1, Offset: int64(i) * 512, Size: 512}, leafNode(uint64(i)))
	}
	queued := func() int {
		c.nodes.mu.Lock()
		defer c.nodes.mu.Unlock()
		return len(c.nodes.queue)
	}
	// Request 1: a lone op, parked on the server.
	first := make(chan error, 1)
	go put(0, first)
	if n := <-meta.entered; n != 1 {
		t.Fatalf("the lone caller's request carried %d ops", n)
	}
	// Ten ops queue behind it and become request 2 when it answers.
	const batch, behind = 10, 5
	batchErrs := make(chan error, batch)
	for i := 0; i < batch; i++ {
		go put(1+i, batchErrs)
	}
	waitFor(t, "ten ops to queue behind the in-flight request", func() bool { return queued() == batch })
	meta.answer <- struct{}{}
	if err := <-first; err != nil {
		t.Fatalf("the answered request: %v", err)
	}
	if n := <-meta.entered; n != batch {
		t.Fatalf("the queued ops went out as a request of %d, want %d", n, batch)
	}
	// Five more queue behind request 2; then the connection drops.
	behindErrs := make(chan error, behind)
	for i := 0; i < behind; i++ {
		go put(100+i, behindErrs)
	}
	waitFor(t, "five ops to queue behind the batch", func() bool { return queued() == behind })
	serverSide.Close()

	var batchErr error
	for i := 0; i < batch; i++ {
		err := <-batchErrs
		if err == nil {
			t.Fatal("an op of the dropped batch reported success")
		}
		if batchErr != nil && err.Error() != batchErr.Error() {
			t.Fatalf("ops of one dropped batch disagree: %v vs %v", err, batchErr)
		}
		batchErr = err
	}
	for i := 0; i < behind; i++ {
		if err := <-behindErrs; err == nil {
			t.Fatal("an op queued behind the dropped batch reported success")
		}
	}
	if err := c.PutNode(1, segtree.NodeKey{Version: 9, Size: 512}, leafNode(9)); !errors.Is(err, rpc.ErrShutdown) {
		t.Fatalf("a node call on the dead connection: %v, want rpc.ErrShutdown", err)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("the metadata endpoint accepted %d connections: something redialed", n)
	}
	close(meta.answer) // let the parked handler goroutine go
}

// TestPropReadListOverFramedClients replays seeded random histories —
// overlapping multi-extent writes, buffered and pipelined, from two
// framed clients — and compares random list-reads of every version,
// through both, byte for byte with a flat image per version: blob's
// read/write property, with the bounded pool and the node combiner
// under it.
func TestPropReadListOverFramedClients(t *testing.T) {
	geo := segtree.Geometry{Capacity: 64 << 10, Page: 1 << 10}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, ep := startNode(t)
		w, err := blob.Create(dialClient(t, ep).Services(), 1, geo)
		if err != nil {
			t.Fatal(err)
		}
		r, err := blob.Open(dialClient(t, ep).Services(), 1)
		if err != nil {
			t.Fatal(err)
		}
		models := [][]byte{make([]byte, geo.Capacity)}
		for i := 0; i < 12; i++ {
			var l extent.List
			for n := 1 + rng.Intn(4); len(l) < n; {
				e := extent.Extent{Offset: rng.Int63n(geo.Capacity - 1), Length: 1 + rng.Int63n(3*geo.Page)}
				if e.End() > geo.Capacity || l.IntersectsExtent(e) {
					continue
				}
				l = append(l, e).Normalize()
			}
			buf := make([]byte, l.TotalLength())
			rng.Read(buf)
			vec, err := extent.NewVec(l, buf)
			if err != nil {
				t.Fatal(err)
			}
			h := []*blob.Blob{w, r}[rng.Intn(2)]
			v, err := h.WriteList(vec, blob.WriteOptions{Pipelined: rng.Intn(2) == 0})
			if err != nil || v != uint64(len(models)) {
				t.Fatalf("seed %d write %d: v%d, %v", seed, i, v, err)
			}
			img := bytes.Clone(models[v-1])
			vec.ScatterInto(img, 0)
			models = append(models, img)
		}
		for i := 0; i < 40; i++ {
			var q extent.List
			for n := 1 + rng.Intn(6); len(q) < n; {
				e := extent.Extent{Offset: rng.Int63n(geo.Capacity), Length: rng.Int63n(6 << 10)}
				if e.End() <= geo.Capacity {
					q = append(q, e) // unsorted, overlapping and empty extents stay
				}
			}
			v := uint64(rng.Intn(len(models)))
			var want []byte
			for _, e := range q {
				want = append(want, models[v][e.Offset:e.End()]...)
			}
			for name, h := range map[string]*blob.Blob{"writer": w, "reader": r} {
				got, err := h.ReadList(v, q)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: ReadList(v%d, %v): %v; differs from the model: %v",
						seed, name, v, q, err, !bytes.Equal(got, want))
				}
			}
		}
	}
}
