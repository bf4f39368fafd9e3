package remote

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
)

// TestFramedPoolIsBounded: a fan-out far wider than the pool rides at
// most framedPoolCap connections, every put succeeds, and a second wave
// dials nothing.
func TestFramedPoolIsBounded(t *testing.T) {
	lis, ep := startCountedNode(t, "mem://", nil)
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	payload := bytes.Repeat([]byte{0x5A}, 32<<10)

	// The pools dial on first use: version-manager and operator calls
	// alone open no connection to the data endpoint or to the meta
	// endpoint. (An operator call is one HTTP connection, closed behind
	// it.)
	waitFor(t, "the version manager's connection", func() bool { return lis.accepted.Load() == vmConnsPerClient })
	if _, err := c.Geometry(7); err == nil {
		t.Fatal("geometry of a blob never created")
	}
	if _, err := opsOf(c).Usage(); err != nil {
		t.Fatal(err)
	}
	const ctrl = vmConnsPerClient + 1
	if n := lis.accepted.Load(); n != ctrl || reg.Snapshot()["bs_data_dials_total"] != 0 {
		t.Fatalf("a client that moved no chunk has %d connections, want %d", n, ctrl)
	}

	if err := putWave(c, 1, 200, payload); err != nil {
		t.Fatalf("first wave: %v", err)
	}
	framed := lis.accepted.Load() - ctrl
	if framed < 1 || framed > framedPoolCap {
		t.Fatalf("200 concurrent puts opened %d framed connections, want 1..%d", framed, framedPoolCap)
	}
	if dials := reg.Snapshot()["bs_data_dials_total"]; int64(dials) != framed {
		t.Fatalf("bs_data_dials_total = %v, the listener accepted %d", dials, framed)
	}
	if err := putWave(c, 2, 200, payload); err != nil {
		t.Fatalf("second wave: %v", err)
	}
	if again := lis.accepted.Load() - ctrl; again != framed {
		t.Fatalf("the second wave dialed %d new connections", again-framed)
	}
	got, err := c.Get(chunk.Key{Blob: 1, Version: 2, Index: 199}, 0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back: %v", err)
	}
	c.pool.mu.Lock()
	open, idle := c.pool.open, len(c.pool.idle)
	c.pool.mu.Unlock()
	if open != idle || int64(open) != framed {
		t.Fatalf("at rest the pool counts %d open, %d idle; %d were dialed", open, idle, framed)
	}
}

// holdingFramedServer accepts connections and, on framed ones, reads
// each put — of a chunk or of a node — whole and then withholds the
// reply until answer or letGo; like the server before trains it flushes
// after every reply. got receives one value per put fully read; ended
// counts connections the peer closed. While dropArmed is set, a put for
// version dropVersion costs its connection instead of being answered,
// once.
type holdingFramedServer struct {
	ln        net.Listener
	release   chan struct{} // one token per reply; closed by letGo
	once      sync.Once
	got       chan struct{}
	accepted  atomic.Int64
	ended     atomic.Int64
	dropArmed atomic.Bool
}

const dropVersion = 666

func startHoldingFramedServer(t *testing.T) *holdingFramedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Both channels are sized above the puts any test has outstanding,
	// so neither the server nor answer ever blocks on them.
	s := &holdingFramedServer{ln: ln, release: make(chan struct{}, 256), got: make(chan struct{}, 256)}
	var (
		mu     sync.Mutex
		conns  []net.Conn
		served sync.WaitGroup
	)
	t.Cleanup(func() {
		ln.Close()
		s.letGo()
		mu.Lock()
		for _, conn := range conns { // whatever the client leaked
			conn.Close()
		}
		mu.Unlock()
		served.Wait()
	})
	served.Add(1)
	go func() {
		defer served.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			served.Add(1)
			go func() {
				defer served.Done()
				defer conn.Close()
				s.serve(conn)
			}()
		}
	}()
	return s
}

// letGo answers every withheld and later put.
func (s *holdingFramedServer) letGo() { s.once.Do(func() { close(s.release) }) }

// answer lets n withheld puts through.
func (s *holdingFramedServer) answer(n int) {
	for ; n > 0; n-- {
		s.release <- struct{}{}
	}
}

func (s *holdingFramedServer) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	magic := make([]byte, len(framedMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		s.ended.Add(1) // a connection that closed before its first call
		return
	}
	bw := bufio.NewWriter(conn)
	for {
		h, err := readHeader(br)
		if err != nil {
			s.ended.Add(1)
			return
		}
		if skipRequestBody(br, h) != nil {
			return
		}
		if h.key.Version == dropVersion && s.dropArmed.CompareAndSwap(true, false) {
			s.ended.Add(1)
			return
		}
		s.got <- struct{}{}
		<-s.release
		bw.WriteByte(statusOK)
		if h.op == opPut {
			bw.Write(appendIDs(nil, []provider.ID{provider.ID(h.key.Index)}))
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// put, node and get run one call of each kind through a pool.
func (p *framedPool) put(key chunk.Key, data []byte) ([]provider.ID, error) {
	c := p.one(putCall(key, data))
	return c.ids, c.err
}

func (p *framedPool) node(op byte, blob uint64, key segtree.NodeKey, body []byte) ([]byte, error) {
	c := p.one(nodeCall(op, blob, key, body))
	return c.data, c.err
}

func (p *framedPool) get(dst []byte, key chunk.Key, off int64) error {
	return p.one(getCall(dst, 0, int64(len(dst)), key, off)).err
}

// train runs calls as one train, whatever the bounds: one round trip, a
// list get for gets.
func (p *framedPool) train(calls []framedCall) {
	t := &framedTrain{left: len(calls)}
	for i := range calls {
		calls[i].of = t
		t.calls = append(t.calls, &calls[i])
		t.bytes += calls[i].payload()
	}
	p.do(t)
}

// poolCounts reads the pool's bookkeeping.
func poolCounts(p *framedPool) (open, idle, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.open, len(p.idle), len(p.queue)
}

// poolPuts are the two kinds of put a pool carries: what holds for the
// pool — the bound, the queue, trains, the retry, close — must hold for
// both, so the tests below run once per row. Put i of a version carries
// i where the fake server can find it: a chunk's index, which the fake
// echoes as the replica set (a node put's reply carries nothing), a
// node's offset.
type poolPut struct {
	name   string
	echoes bool
	put    func(p *framedPool, version uint64, i int, body []byte) ([]provider.ID, error)
}

var poolPuts = []poolPut{
	{"chunk put", true, func(p *framedPool, version uint64, i int, body []byte) ([]provider.ID, error) {
		return p.put(chunk.Key{Blob: 1, Version: version, Index: uint32(i)}, body)
	}},
	{"node put", false, func(p *framedPool, version uint64, i int, body []byte) ([]provider.ID, error) {
		_, err := p.node(opNodePut, 1, segtree.NodeKey{Version: version, Offset: int64(i), Size: 1}, body)
		return nil, err
	}},
}

// occupy starts one put per pool connection against srv and returns
// once the server holds them all: every later call queues.
func occupy(t *testing.T, srv *holdingFramedServer, put func(version uint64, i int, body []byte) ([]provider.ID, error)) <-chan error {
	t.Helper()
	errs := make(chan error, framedPoolCap)
	for i := 0; i < framedPoolCap; i++ {
		go func(i int) {
			_, err := put(1, i, []byte("in flight"))
			errs <- err
		}(i)
	}
	for i := 0; i < framedPoolCap; i++ {
		<-srv.got
	}
	return errs
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClientCloseMidFlightClosesEveryConnection is the regression test
// for the leaking close: a put that finished after Client.Close used to
// hand its connection back to the emptied pool, where it stayed open
// for the life of the process. With trains there is more in flight to
// get wrong: Close arrives with lone puts on the wire, a whole train
// written to one connection behind a withheld reply, and calls queued
// behind that. The queued calls fail, everything on the wire finishes,
// and every socket ends.
func TestClientCloseMidFlightClosesEveryConnection(t *testing.T) {
	_, ep := startNode(t)
	srv := startHoldingFramedServer(t)
	ep.Data = srv.ln.Addr().String()
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	put := func(version uint64, n int) <-chan error {
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			go func(i int) {
				_, err := c.Put(chunk.Key{Blob: 1, Version: version, Index: uint32(i)}, []byte("behind"))
				errs <- err
			}(i)
		}
		return errs
	}
	queued := func(n int) func() bool {
		return func() bool { _, _, q := poolCounts(c.pool); return q == n }
	}
	const train, late = 6, 3
	lone := occupy(t, srv, func(version uint64, i int, body []byte) ([]provider.ID, error) {
		return c.Put(chunk.Key{Blob: 1, Version: version, Index: uint32(i)}, body)
	})
	inTrain := put(2, train)
	waitFor(t, "the train's calls to queue", queued(train))
	srv.answer(1) // one connection comes free and takes all six
	<-srv.got     // the train's first put is read, its reply withheld
	waitFor(t, "the queue to empty into the train", queued(0))
	behind := put(3, late)
	waitFor(t, "the late calls to queue", queued(late))

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < late; i++ {
		select {
		case err := <-behind:
			if !errors.Is(err, ErrClientClosed) {
				t.Errorf("a put queued at Close: %v, want ErrClientClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a put queued behind a train hung through Close")
		}
	}
	srv.letGo()
	for i := 0; i < framedPoolCap; i++ {
		if err := <-lone; err != nil {
			t.Errorf("a put already on the wire at Close: %v", err)
		}
	}
	for i := 0; i < train; i++ {
		if err := <-inTrain; err != nil {
			t.Errorf("a put in a train on the wire at Close: %v", err)
		}
	}
	// The pool's framed connections, and nothing else to the data node.
	const conns = framedPoolCap
	waitFor(t, "every accepted connection to be closed by the client", func() bool {
		return srv.accepted.Load() == conns && srv.ended.Load() == conns
	})
	if open, idle, _ := poolCounts(c.pool); open != 0 || idle != 0 {
		t.Errorf("a closed pool at rest counts %d open, %d idle", open, idle)
	}
	if _, err := c.Put(chunk.Key{Blob: 1, Version: 1, Index: 99}, []byte("late")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("put after Close: %v, want ErrClientClosed", err)
	}
	if n := srv.accepted.Load(); n != conns {
		t.Fatalf("a put after Close dialed: %d connections accepted", n)
	}
	// The node pool never dialed, and is closed all the same.
	if err := c.PutNode(1, segtree.NodeKey{Version: 1, Size: 512}, leafNode(1)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("node put after Close: %v, want ErrClientClosed", err)
	}
}

// TestFramedPoolCloseWakesWaiters: calls queued behind a full pool
// return ErrClientClosed at close instead of hanging, before any
// connection comes back.
func TestFramedPoolCloseWakesWaiters(t *testing.T) {
	for _, kind := range poolPuts {
		t.Run(kind.name, func(t *testing.T) {
			srv := startHoldingFramedServer(t)
			pool := newFramedPool(srv.ln.Addr().String())
			put := func(version uint64, i int, body []byte) ([]provider.ID, error) {
				return kind.put(pool, version, i, body)
			}
			const waiters = 4
			inFlight := occupy(t, srv, put)
			waiting := make(chan error, waiters)
			for i := 0; i < waiters; i++ {
				go func(i int) {
					_, err := put(2, i, []byte("x"))
					waiting <- err
				}(i)
			}
			waitFor(t, "the waiters to queue", func() bool { _, _, q := poolCounts(pool); return q == waiters })
			pool.close()
			for i := 0; i < waiters; i++ {
				select {
				case err := <-waiting:
					if !errors.Is(err, ErrClientClosed) {
						t.Errorf("waiter %d: %v, want ErrClientClosed", i, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a call queued behind the full pool hung through close")
				}
			}
			if n := srv.accepted.Load(); n != framedPoolCap {
				t.Fatalf("%d connections accepted, want the bound of %d", n, framedPoolCap)
			}
			srv.letGo()
			for i := 0; i < framedPoolCap; i++ {
				if err := <-inFlight; err != nil {
					t.Errorf("in-flight put: %v", err)
				}
			}
			waitFor(t, "the in-flight connections to close on release", func() bool {
				return srv.ended.Load() == framedPoolCap
			})
		})
	}
}

// TestTrainSurvivesDroppedConnection: the server answers the first k
// calls of a train and then drops the connection. Those k keep their
// answers, the rest are re-sent once on a fresh dial and succeed, and
// the pool's books balance afterwards.
func TestTrainSurvivesDroppedConnection(t *testing.T) {
	for _, kind := range poolPuts {
		t.Run(kind.name, func(t *testing.T) { testTrainSurvivesDroppedConnection(t, kind) })
	}
}

func testTrainSurvivesDroppedConnection(t *testing.T, kind poolPut) {
	srv := startHoldingFramedServer(t)
	pool := newFramedPool(srv.ln.Addr().String())
	defer pool.close()
	reg := metrics.NewRegistry()
	pool.trainOps = reg.Histogram("bs_data_train_ops", trainBuckets())
	put := func(version uint64, i int, body []byte) ([]provider.ID, error) {
		return kind.put(pool, version, i, body)
	}
	const n, k = 10, 4
	lone := occupy(t, srv, put)

	srv.dropArmed.Store(true)
	type result struct {
		i   int
		ids []provider.ID
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		// Queue in index order, so the train is calls 0..n-1 in order and
		// the dropping put is its k-th.
		waitFor(t, "the previous call to queue", func() bool { _, _, q := poolCounts(pool); return q == i })
		version := uint64(2)
		if i == k {
			version = dropVersion
		}
		go func(i int) {
			ids, err := put(version, 100+i, []byte("train"))
			results <- result{i, ids, err}
		}(i)
	}
	waitFor(t, "the train's calls to queue", func() bool { _, _, q := poolCounts(pool); return q == n })
	srv.letGo()
	for i := 0; i < framedPoolCap; i++ {
		if err := <-lone; err != nil {
			t.Errorf("lone put: %v", err)
		}
	}
	for j := 0; j < n; j++ {
		select {
		case r := <-results:
			// Where the fake echoes the put's own index as its replica
			// set, each caller must get its own reply, not a neighbour's.
			if r.err != nil || (kind.echoes && (len(r.ids) != 1 || r.ids[0] != provider.ID(100+r.i))) {
				t.Errorf("call %d of the train: ids %v, %v", r.i, r.ids, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call of the dropped train hung")
		}
	}
	if srv.dropArmed.Load() {
		t.Fatal("the server never dropped the train's connection")
	}
	// One fresh dial carried the re-sent calls, in the dropped
	// connection's slot; nothing else was dialed.
	if got := srv.accepted.Load(); got != framedPoolCap+1 {
		t.Errorf("%d connections accepted, want %d", got, framedPoolCap+1)
	}
	// One train of n, cut at k by the drop, and its n-k calls re-sent
	// as one train: the histogram saw both, beside the lone puts.
	snap := reg.Snapshot()
	if got, want := snap["bs_data_train_ops_sum"], float64(framedPoolCap+n+n-k); got != want {
		t.Errorf("bs_data_train_ops_sum = %v, want %v", got, want)
	}
	if got, want := snap["bs_data_train_ops_count"], float64(framedPoolCap+2); got != want {
		t.Errorf("bs_data_train_ops_count = %v, want %v", got, want)
	}
	// The failure flushed whatever was idle, so how many connections
	// remain depends on timing — but each is idle and accounted for.
	waitFor(t, "the pool to come to rest", func() bool {
		open, idle, queued := poolCounts(pool)
		return open == idle && queued == 0 && int64(open) == srv.accepted.Load()-srv.ended.Load()
	})
	if open, _, _ := poolCounts(pool); open < 1 || open > framedPoolCap {
		t.Errorf("%d connections open at rest, want 1..%d", open, framedPoolCap)
	}
}

// TestTrainAgainstServerThatFlushesEveryReply is the interop check in
// one direction: the client's trains against a server that, like the
// one before trains, answers and flushes one request at a time.
func TestTrainAgainstServerThatFlushesEveryReply(t *testing.T) {
	srv := startHoldingFramedServer(t)
	srv.letGo()
	pool := newFramedPool(srv.ln.Addr().String())
	defer pool.close()
	const calls = 200
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids, err := pool.put(chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, bytes.Repeat([]byte{byte(i)}, 1+i*97))
			if err != nil || len(ids) != 1 || ids[0] != provider.ID(i) {
				t.Errorf("put %d: ids %v, %v", i, ids, err)
			}
		}(i)
	}
	wg.Wait()
	if n := srv.accepted.Load(); n < 1 || n > framedPoolCap {
		t.Fatalf("%d connections accepted, want 1..%d", n, framedPoolCap)
	}

	// Gets: every reply flushed per request.
	addr, _ := fakeFramedGets(t, []int{1000, 1000, 1000})
	gets := newFramedPool(addr)
	defer gets.close()
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := make([]byte, 3000)
			err := gets.get(data, chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, 0)
			if err != nil || data[2999] != 0xAB {
				t.Errorf("get %d: last byte %#x, %v", i, data[2999], err)
			}
		}(i)
	}
	wg.Wait()
}

// cuttingConn is the server's end of a connection on a listener that
// loses one flush: every Write waits for hold to close, and the first
// connection to flush a second time (while armed is set) is closed
// instead — whatever the server applied before that flush, it could not
// answer.
type cuttingConn struct {
	net.Conn
	hold    <-chan struct{}
	armed   *atomic.Bool
	flushes int // this connection's; its server goroutine alone writes
}

func (c *cuttingConn) Write(p []byte) (int, error) {
	<-c.hold
	if c.flushes++; c.flushes == 2 && c.armed.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestNodePutsAppliedButUnansweredSucceedOnRetry: the real framed server
// applies a train of node puts to its store and loses the connection
// before the answer leaves. The pool cannot tell that from a stale
// socket and re-sends the train on a fresh dial, where every put finds
// its node already stored: identical re-puts are no-ops, so every caller
// returns nil and the store holds each node once.
func TestNodePutsAppliedButUnansweredSucceedOnRetry(t *testing.T) {
	store := metadata.NewStore(2, iosim.CostModel{})
	fs := newFramedServer(Roles{Meta: store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	var accepted atomic.Int64
	var armed atomic.Bool
	armed.Store(true)
	var served sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		served.Wait() // every connection ends with the pool's close
	})
	served.Add(1)
	go func() {
		defer served.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			served.Add(1)
			go func() {
				defer served.Done()
				br := bufio.NewReaderSize(conn, 64<<10)
				if _, err := br.Discard(len(framedMagic)); err != nil {
					conn.Close()
					return
				}
				// A connection's first flush answers its lone put, its second
				// a train: the first of those anywhere is the one cut.
				fs.serve(&cuttingConn{Conn: conn, hold: hold, armed: &armed}, br)
			}()
		}
	}()
	pool := newFramedPool(ln.Addr().String())
	defer pool.close()

	const train = 20
	errs := make(chan error, framedPoolCap+train)
	put := func(version uint64, i int) {
		_, err := pool.node(opNodePut, 1, segtree.NodeKey{Version: version, Offset: int64(i) * 512, Size: 512}, segtree.AppendNode(nil, leafNode(uint64(i))))
		errs <- err
	}
	// One put per connection, applied and held unanswered: from here on
	// every connection of the pool is a used one.
	for i := 0; i < framedPoolCap; i++ {
		go put(1, i)
	}
	waitFor(t, "the lone puts to be applied", func() bool { return store.Count() == framedPoolCap })
	for i := 0; i < train; i++ {
		go put(2, i)
	}
	waitFor(t, "the train's calls to queue", func() bool { _, _, q := poolCounts(pool); return q == train })
	close(hold)
	for i := 0; i < framedPoolCap+train; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("a node put whose first answer was lost: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a node put hung")
		}
	}
	if n := store.Count(); n != framedPoolCap+train {
		t.Errorf("the store holds %d nodes, want %d", n, framedPoolCap+train)
	}
	if armed.Load() {
		t.Error("no connection was cut")
	}
	if n := accepted.Load(); n != framedPoolCap+1 {
		t.Errorf("%d connections accepted, want %d: the retry rides one fresh dial", n, framedPoolCap+1)
	}
}
