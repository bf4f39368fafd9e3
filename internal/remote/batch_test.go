package remote

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// putBatch is n chunk puts of size bytes each under one version.
func putBatch(version uint64, n, size int) []framedCall {
	batch := make([]framedCall, n)
	for i := range batch {
		batch[i] = putCall(chunk.Key{Blob: 1, Version: version, Index: uint32(i)}, bytes.Repeat([]byte{byte(i)}, size))
	}
	return batch
}

// trainSeries gives p a train histogram of its own and returns a reader
// of (trains, calls carried) so far.
func trainSeries(p *framedPool) func() (trains, calls float64) {
	reg := metrics.NewRegistry()
	p.trainOps = reg.Histogram("bs_data_train_ops", trainBuckets())
	return func() (float64, float64) {
		snap := reg.Snapshot()
		return snap["bs_data_train_ops_count"], snap["bs_data_train_ops_sum"]
	}
}

// TestBatchIsCutAtTheTrainBounds: a batch becomes as many trains as it
// could use connections, of equal length — and more, shorter ones where
// 32 calls or 1 MiB of payload say so. Every call is in exactly one
// train, in batch order.
func TestBatchIsCutAtTheTrainBounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, size int
		want    []int // calls per train
	}{
		{"one call", 1, 100, []int{1}},
		{"two calls, two trains", 2, 100, []int{1, 1}},
		{"five calls", 5, 100, []int{2, 2, 1}},
		{"a tile write's node puts", 127, 60, []int{32, 32, 32, 31}},
		{"a tile write's chunk puts", 92, 22 << 10, []int{23, 23, 23, 23}},
		{"past the call bound", 200, 10, []int{32, 32, 32, 32, 32, 32, 8}},
		{"past the byte bound", 12, 400 << 10, []int{2, 2, 2, 2, 2, 2}},
		{"megabyte chunks travel alone", 8, 1 << 20, []int{1, 1, 1, 1, 1, 1, 1, 1}},
		{"oversized calls travel alone too", 3, 2 << 20, []int{1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch := putBatch(1, tc.n, tc.size)
			var got []int
			next := 0
			for _, tr := range cutTrains(batch) {
				got = append(got, len(tr.calls))
				var bytes int64
				for _, c := range tr.calls {
					if c != &batch[next] || c.of != tr {
						t.Fatalf("call %d is not where the cut says it is", next)
					}
					bytes += c.payload()
					next++
				}
				if tr.left != len(tr.calls) || tr.bytes != bytes {
					t.Errorf("train of %d calls, %d bytes counts left=%d bytes=%d", len(tr.calls), bytes, tr.left, tr.bytes)
				}
				if len(tr.calls) > maxTrainCalls || (len(tr.calls) > 1 && bytes > maxTrainBytes) {
					t.Errorf("train of %d calls, %d bytes is past the bounds", len(tr.calls), bytes)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) || next != tc.n {
				t.Fatalf("cut %v (%d calls), want %v", got, next, tc.want)
			}
		})
	}
	if trains := cutTrains(nil); len(trains) != 0 {
		t.Fatalf("an empty batch was cut into %d trains", len(trains))
	}
}

// TestBatchOfTwoUsesTwoConnections: the two pieces of a small write move
// on two sockets at once, not one behind the other.
func TestBatchOfTwoUsesTwoConnections(t *testing.T) {
	srv := startHoldingFramedServer(t)
	pool := newFramedPool(srv.ln.Addr().String())
	defer pool.close()
	batch := putBatch(1, 2, 100)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pool.run(batch)
	}()
	// The server reads a connection's next request only after it answered
	// the last: two puts read with no reply released are two connections.
	for i := 0; i < 2; i++ {
		select {
		case <-srv.got:
		case <-time.After(5 * time.Second):
			t.Fatalf("the server read %d of the 2 puts while it withheld every reply", i)
		}
	}
	if n := srv.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2", n)
	}
	srv.letGo()
	<-done
	for i := range batch {
		if batch[i].err != nil || len(batch[i].ids) != 1 || batch[i].ids[0] != provider.ID(i) {
			t.Errorf("put %d: ids %v, %v", i, batch[i].ids, batch[i].err)
		}
	}
}

// TestBatchServerErrorFailsThatCallAlone: one chunk of a batch is stored
// already. Its put fails with the store's error; every other put of the
// batch — before it, behind it in its train, in other trains — is stored.
func TestBatchServerErrorFailsThatCallAlone(t *testing.T) {
	// One provider, so a second put of a chunk lands on the store that
	// holds it.
	mgr, _ := provider.NewPool(1, iosim.CostModel{})
	node, err := Listen("127.0.0.1:0", Roles{Data: provider.NewRouter(mgr), VM: vmanager.New(iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c := dialClient(t, Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()})
	const n, taken = 10, 3
	if _, err := c.Put(chunk.Key{Blob: 1, Version: 1, Index: taken}, []byte("first")); err != nil {
		t.Fatal(err)
	}
	batch := putBatch(1, n, 64)
	c.pool.run(batch)
	for i := range batch {
		switch err := batch[i].err; {
		case i == taken && (err == nil || !strings.Contains(err.Error(), chunk.ErrExists.Error())):
			t.Errorf("put %d of a chunk already stored: %v, want %v", i, err, chunk.ErrExists)
		case i != taken && (err != nil || len(batch[i].ids) == 0):
			t.Errorf("put %d: ids %v, %v", i, batch[i].ids, err)
		}
	}
	// The list form reports the same outcome as one error, and attempts
	// every put whatever becomes of the others.
	keys, data := make([]chunk.Key, n), make([][]byte, n)
	for i := range keys {
		keys[i], data[i] = chunk.Key{Blob: 1, Version: 2, Index: uint32(i)}, []byte{byte(i)}
	}
	keys[taken] = chunk.Key{Blob: 1, Version: 1, Index: taken}
	if _, err := c.PutMany(keys, data); err == nil || !strings.Contains(err.Error(), chunk.ErrExists.Error()) {
		t.Fatalf("PutMany over a chunk already stored: %v, want %v", err, chunk.ErrExists)
	}
	for i, key := range keys {
		if got, err := c.Get(key, 0, 1); i != taken && (err != nil || got[0] != byte(i)) {
			t.Errorf("chunk %d of the failed PutMany: %v, %v", i, got, err)
		}
	}
}

// TestBatchResendsOnlyUnansweredCallsOnce: the connection under one train
// of a batch drops after the server answered the train's first call. That
// call keeps its answer; the call the drop hit and the one behind it are
// re-sent on one fresh dial, once; the batch's other trains never notice.
func TestBatchResendsOnlyUnansweredCallsOnce(t *testing.T) {
	for _, kind := range poolPuts {
		t.Run(kind.name, func(t *testing.T) {
			srv := startHoldingFramedServer(t)
			pool := newFramedPool(srv.ln.Addr().String())
			defer pool.close()
			trains := trainSeries(pool)
			// Use every connection once, so that a failure on one reads as a
			// stale socket and earns the retry.
			lone := occupy(t, srv, func(version uint64, i int, body []byte) ([]provider.ID, error) {
				return kind.put(pool, version, i, body)
			})
			srv.letGo()
			for i := 0; i < framedPoolCap; i++ {
				if err := <-lone; err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "every connection to come back idle", func() bool { _, idle, _ := poolCounts(pool); return idle == framedPoolCap })

			// Ten calls are cut 3, 3, 3, 1; the drop hits the middle call of
			// the second train.
			const n, hit = 10, 4
			batch := make([]framedCall, n)
			for i := range batch {
				version := uint64(2)
				if i == hit {
					version = dropVersion
				}
				if kind.echoes {
					batch[i] = putCall(chunk.Key{Blob: 1, Version: version, Index: uint32(100 + i)}, []byte("batch"))
				} else {
					batch[i] = nodeCall(opNodePut, 1, segtree.NodeKey{Version: version, Offset: int64(100 + i), Size: 1}, []byte("batch"))
				}
			}
			srv.dropArmed.Store(true)
			pool.run(batch)
			if srv.dropArmed.Load() {
				t.Fatal("the server never dropped a connection")
			}
			for i := range batch {
				if err := batch[i].err; err != nil || (kind.echoes && (len(batch[i].ids) != 1 || batch[i].ids[0] != provider.ID(100+i))) {
					t.Errorf("call %d: ids %v, %v", i, batch[i].ids, err)
				}
				if batch[i].retried != (i == hit || i == hit+1) {
					t.Errorf("call %d: re-sent = %v", i, batch[i].retried)
				}
			}
			if got := srv.accepted.Load(); got != framedPoolCap+1 {
				t.Errorf("%d connections accepted, want %d: the retry rides one fresh dial", got, framedPoolCap+1)
			}
			// Every put the server read to its end it answered, and none
			// twice: the lone ones, then the batch's ten.
			if got := len(srv.got); got != n {
				t.Errorf("the server read %d puts of the batch to their end, want %d", got, n)
			}
			// Four lone trains, the batch's four, and the re-sent pair.
			if count, sum := trains(); count != framedPoolCap+4+1 || sum != framedPoolCap+n+2 {
				t.Errorf("%v trains carried %v calls, want %d and %d", count, sum, framedPoolCap+4+1, framedPoolCap+n+2)
			}
		})
	}
}

// TestBatchQueuedAtCloseFailsEveryMember: a batch that found every
// connection busy waits in the queue as trains. Close fails each of its
// calls with ErrClientClosed, and the batch returns — its helpers gone —
// before any connection comes back.
func TestBatchQueuedAtCloseFailsEveryMember(t *testing.T) {
	_, ep := startNode(t)
	srv := startHoldingFramedServer(t)
	ep.Data = srv.ln.Addr().String()
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	lone := occupy(t, srv, func(version uint64, i int, body []byte) ([]provider.ID, error) {
		return c.Put(chunk.Key{Blob: 1, Version: version, Index: uint32(i)}, body)
	})

	const n = 10 // cut 3, 3, 3, 1: the caller and three helpers queue a train each
	keys, data := make([]chunk.Key, n), make([][]byte, n)
	for i := range keys {
		keys[i], data[i] = chunk.Key{Blob: 1, Version: 2, Index: uint32(i)}, []byte("queued")
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.PutMany(keys, data)
		done <- err
	}()
	waitFor(t, "the batch's trains to queue", func() bool { _, _, q := poolCounts(c.pool); return q == framedPoolCap })
	batch := putBatch(3, n, 16)
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		c.pool.run(batch)
	}()
	waitFor(t, "the second batch's trains to queue", func() bool { _, _, q := poolCounts(c.pool); return q == 2*framedPoolCap })

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("a batch queued at Close: %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a batch queued behind a full pool hung through Close")
	}
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("a second batch queued behind a full pool hung through Close")
	}
	for i := range batch {
		if !errors.Is(batch[i].err, ErrClientClosed) {
			t.Errorf("call %d of a batch queued at Close: %v, want ErrClientClosed", i, batch[i].err)
		}
	}
	// (run waits for its helpers: that both batches returned is what
	// shows no goroutine of theirs is left in the queue.)
	if n := srv.accepted.Load(); n != framedPoolCap+1 { // the gob data connection beside the pool's
		t.Errorf("%d connections accepted, want %d: a queued batch dialed", n, framedPoolCap+1)
	}
	srv.letGo()
	for i := 0; i < framedPoolCap; i++ {
		if err := <-lone; err != nil {
			t.Errorf("a put already on the wire at Close: %v", err)
		}
	}
}

// TestBatchesAndLoneCallsInterleaved: eight goroutines drive one client
// with every form of call at once — lone chunk and node calls, chunk and
// node batches of every length up to past the bounds. Every call settles
// with its own outcome.
func TestBatchesAndLoneCallsInterleaved(t *testing.T) {
	_, ep := startCountedNode(t, "mem://", nil)
	c := dialClient(t, ep)
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				version := uint64(g*rounds + r + 1)
				n := []int{1, 2, 5, 40, 92, 140}[r]
				body := func(i int) []byte { return bytes.Repeat([]byte{byte(g), byte(r), byte(i)}, 1+i%7*300) }

				// Chunks: a batch of puts, a lone put, then everything read
				// back as a batch and one chunk alone.
				keys, data := make([]chunk.Key, n), make([][]byte, n)
				for i := range keys {
					keys[i], data[i] = chunk.Key{Blob: uint64(g), Version: version, Index: uint32(i)}, body(i)
				}
				if _, err := c.PutMany(keys[1:], data[1:]); err != nil {
					t.Errorf("goroutine %d round %d: PutMany: %v", g, r, err)
					return
				}
				if _, err := c.Put(keys[0], data[0]); err != nil {
					t.Errorf("goroutine %d round %d: Put: %v", g, r, err)
					return
				}
				reads := make([]blob.ChunkRead, n)
				for i := range reads {
					reads[i] = blob.ChunkRead{Dst: make([]byte, len(data[i])), Key: keys[i]}
				}
				if err := c.GetManyInto(reads); err != nil {
					t.Errorf("goroutine %d round %d: GetManyInto: %v", g, r, err)
					return
				}
				for i := range reads {
					if !bytes.Equal(reads[i].Dst, data[i]) {
						t.Errorf("goroutine %d round %d: chunk %d read back differs", g, r, i)
					}
				}
				if got, err := c.Get(keys[n-1], 0, int64(len(data[n-1]))); err != nil || !bytes.Equal(got, data[n-1]) {
					t.Errorf("goroutine %d round %d: Get: %v", g, r, err)
				}

				// Nodes: the same, plus a try-get batch in which every other
				// node is missing.
				nkeys, nodes := make([]segtree.NodeKey, n), make([]*segtree.Node, n)
				for i := range nkeys {
					nkeys[i], nodes[i] = segtree.NodeKey{Version: version, Offset: int64(i) * 512, Size: 512}, leafNode(uint64(g*1000+i))
				}
				if err := c.PutNodes(uint64(g), nkeys[1:], nodes[1:]); err != nil {
					t.Errorf("goroutine %d round %d: PutNodes: %v", g, r, err)
					return
				}
				if err := c.PutNode(uint64(g), nkeys[0], nodes[0]); err != nil {
					t.Errorf("goroutine %d round %d: PutNode: %v", g, r, err)
					return
				}
				probe := make([]segtree.NodeKey, 0, 2*n)
				for _, key := range nkeys {
					probe = append(probe, key, segtree.NodeKey{Version: key.Version, Offset: key.Offset, Size: 1024})
				}
				got, err := c.GetNodes(uint64(g), probe, true)
				if err != nil {
					t.Errorf("goroutine %d round %d: GetNodes(try): %v", g, r, err)
					return
				}
				for i, n := range got {
					if i%2 == 1 && n != nil {
						t.Errorf("goroutine %d round %d: a node never stored was found", g, r)
					}
					if i%2 == 0 && (n == nil || n.Frags[0].Ext != nodes[i/2].Frags[0].Ext) {
						t.Errorf("goroutine %d round %d: node %d read back as %+v", g, r, i/2, n)
					}
				}
				if _, err := c.GetNodes(uint64(g), probe, false); err == nil {
					t.Errorf("goroutine %d round %d: GetNodes of missing nodes returned no error", g, r)
				}
				if got, err := c.GetNodes(uint64(g), nkeys, false); err != nil || len(got) != n {
					t.Errorf("goroutine %d round %d: GetNodes: %d nodes, %v", g, r, len(got), err)
				}
			}
		}(g)
	}
	wg.Wait()
	waitFor(t, "both pools to come to rest", func() bool {
		open, idle, queued := poolCounts(c.pool)
		nopen, nidle, nqueued := poolCounts(c.nodes)
		return open == idle && queued == 0 && nopen == nidle && nqueued == 0 && open <= framedPoolCap && nopen <= framedPoolCap
	})
}

// TestNodeBatchLeavesInPoolCapTrains: the 127 node puts of a tile write,
// handed over as one batch, leave in exactly framedPoolCap trains; a tile
// write through a blob handle — one try-get of the leaves it overlays, one
// put of its nodes — costs the node pool at most twice that.
func TestNodeBatchLeavesInPoolCapTrains(t *testing.T) {
	_, ep := startCountedNode(t, "mem://", nil)
	c := dialClient(t, ep)
	trains := trainSeries(c.nodes)

	const nodes = 127
	keys, ns := make([]segtree.NodeKey, nodes), make([]*segtree.Node, nodes)
	for i := range keys {
		keys[i], ns[i] = segtree.NodeKey{Version: 9, Offset: int64(i) * 1024, Size: 1024}, leafNode(uint64(i))
	}
	if err := c.PutNodes(7, keys, ns); err != nil {
		t.Fatal(err)
	}
	if count, sum := trains(); count != framedPoolCap || sum != nodes {
		t.Fatalf("%d node puts as one batch left in %v trains carrying %v calls, want %d and %d", nodes, count, sum, framedPoolCap, nodes)
	}

	// 64 pages, every one written in part, twice, by two handles: the
	// second write flattens over 64 leaves its own cache has never seen.
	const page = 1 << 10
	geo := segtree.Geometry{Capacity: 64 * page, Page: page}
	first, err := blob.Create(c.Services(), 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	second, err := blob.Open(c.Services(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tile := func(off int64, fill byte) extent.Vec {
		l := make(extent.List, 64)
		for i := range l {
			l[i] = extent.Extent{Offset: int64(i)*page + off, Length: page / 2}
		}
		return extent.Vec{Extents: l, Buf: bytes.Repeat([]byte{fill}, 64*page/2)}
	}
	if _, err := first.WriteList(tile(0, 1), blob.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	before, _ := trains()
	v, err := second.WriteList(tile(page/4, 2), blob.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if count, _ := trains(); count-before > 2*framedPoolCap {
		t.Fatalf("a tile write cost the node pool %v trains, want at most %d", count-before, 2*framedPoolCap)
	}
	// And it flattened: the reader's walk finds no chained leaf, so one
	// list get per level of the seven-level tree.
	reader, err := blob.Open(c.Services(), 1)
	if err != nil {
		t.Fatal(err)
	}
	before, _ = trains()
	got, err := reader.ReadList(v, extent.List{geo.Root()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if pg := got[i*page : (i+1)*page]; pg[0] != 1 || pg[page/4] != 2 || pg[3*page/4-1] != 2 || pg[3*page/4] != 0 {
			t.Fatalf("page %d reads back wrong", i)
		}
	}
	if count, _ := trains(); count-before > 7*framedPoolCap {
		t.Fatalf("a whole-blob read cost the node pool %v trains, want at most %d", count-before, 7*framedPoolCap)
	}
}

// failingData refuses every put.
type failingData struct{ blob.DataService }

func (failingData) Put(chunk.Key, []byte) ([]provider.ID, error) {
	return nil, errors.New("no room")
}

// TestNodeTombstoneRidesOneBatch: a 64-extent write whose chunks cannot be
// stored retires its ticket with tombstone nodes — 127 of them — and the
// node pool carries them in at most framedPoolCap trains. The tombstone
// publishes: the next version reads as the one before it.
func TestNodeTombstoneRidesOneBatch(t *testing.T) {
	_, ep := startCountedNode(t, "mem://", nil)
	c := dialClient(t, ep)
	trains := trainSeries(c.nodes)
	const page = 1 << 10
	geo := segtree.Geometry{Capacity: 64 * page, Page: page}
	svc := c.Services()
	good, err := blob.Create(svc, 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Write(0, bytes.Repeat([]byte{7}, 3*page), blob.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	svc.Data = failingData{svc.Data}
	bad, err := blob.Open(svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := make(extent.List, 64)
	for i := range l {
		l[i] = extent.Extent{Offset: int64(i) * page, Length: 100}
	}
	before, callsBefore := trains()
	if _, err := bad.WriteList(extent.Vec{Extents: l, Buf: make([]byte, 6400)}, blob.WriteOptions{}); err == nil {
		t.Fatal("a write whose chunks were refused succeeded")
	}
	if count, calls := trains(); count-before > framedPoolCap || calls-callsBefore != 127 {
		t.Fatalf("retiring the ticket cost the node pool %v trains carrying %v calls, want at most %d carrying 127", count-before, calls-callsBefore, framedPoolCap)
	}
	got, v, err := good.ReadLatest(extent.List{{Offset: 0, Length: 4 * page}})
	if err != nil || v != 2 {
		t.Fatalf("ReadLatest after the tombstone: v%d, %v", v, err)
	}
	if want := append(bytes.Repeat([]byte{7}, 3*page), make([]byte, page)...); !bytes.Equal(got, want) {
		t.Fatal("the tombstone version does not read as its predecessor")
	}
}
