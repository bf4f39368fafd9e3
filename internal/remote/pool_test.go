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
	"repro/internal/metrics"
	"repro/internal/provider"
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

	if err := putWave(c, 1, 200, payload); err != nil {
		t.Fatalf("first wave: %v", err)
	}
	framed := lis.accepted.Load() - gobConnsPerClient
	if framed < 1 || framed > framedPoolCap {
		t.Fatalf("200 concurrent puts opened %d framed connections, want 1..%d", framed, framedPoolCap)
	}
	if dials := reg.Snapshot()["bs_data_dials_total"]; int64(dials) != framed {
		t.Fatalf("bs_data_dials_total = %v, the listener accepted %d", dials, framed)
	}
	if err := putWave(c, 2, 200, payload); err != nil {
		t.Fatalf("second wave: %v", err)
	}
	if again := lis.accepted.Load() - gobConnsPerClient; again != framed {
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
// each put whole and then withholds the reply until letGo.
// got receives one value per put fully read; ended counts connections
// the peer closed.
type holdingFramedServer struct {
	ln       net.Listener
	release  chan struct{}
	once     sync.Once
	got      chan struct{}
	accepted atomic.Int64
	ended    atomic.Int64
}

func startHoldingFramedServer(t *testing.T) *holdingFramedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &holdingFramedServer{ln: ln, release: make(chan struct{}), got: make(chan struct{}, 64)}
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

func (s *holdingFramedServer) serve(conn net.Conn) {
	br := bufio.NewReader(conn)
	magic := make([]byte, len(framedMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		s.ended.Add(1) // a gob connection that closed before its first call
		return
	}
	bw := bufio.NewWriter(conn)
	for {
		if _, err := readHeader(br); err != nil {
			s.ended.Add(1)
			return
		}
		body := &frameBodyReader{r: br}
		if body.drain() != nil {
			return
		}
		s.got <- struct{}{}
		<-s.release
		bw.WriteByte(0)
		writeIDs(bw, []provider.ID{0})
		if bw.Flush() != nil {
			return
		}
	}
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
// for the life of the process.
func TestClientCloseMidFlightClosesEveryConnection(t *testing.T) {
	_, ep := startNode(t)
	srv := startHoldingFramedServer(t)
	ep.Data = srv.ln.Addr().String()
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	const puts = 8
	errs := make(chan error, puts)
	for i := 0; i < puts; i++ {
		go func(i int) {
			_, err := c.Put(chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, []byte("in flight"))
			errs <- err
		}(i)
	}
	for i := 0; i < puts; i++ {
		<-srv.got
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	srv.letGo()
	for i := 0; i < puts; i++ {
		if err := <-errs; err != nil {
			t.Errorf("a put already on the wire at Close: %v", err)
		}
	}
	// The gob data connection plus one framed connection per put.
	waitFor(t, "every accepted connection to be closed by the client", func() bool {
		return srv.accepted.Load() == puts+1 && srv.ended.Load() == puts+1
	})
	if _, err := c.Put(chunk.Key{Blob: 1, Version: 1, Index: 99}, []byte("late")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("put after Close: %v, want ErrClientClosed", err)
	}
	if n := srv.accepted.Load(); n != puts+1 {
		t.Fatalf("a put after Close dialed: %d connections accepted", n)
	}
}

// TestFramedPoolCloseWakesWaiters: acquirers queued behind a full pool
// return ErrClientClosed at close instead of hanging, before any
// connection comes back.
func TestFramedPoolCloseWakesWaiters(t *testing.T) {
	srv := startHoldingFramedServer(t)
	pool := newFramedPool(srv.ln.Addr().String())
	const waiters = 4
	inFlight := make(chan error, framedPoolCap)
	for i := 0; i < framedPoolCap; i++ {
		go func(i int) {
			_, err := pool.put(chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, []byte("x"))
			inFlight <- err
		}(i)
	}
	for i := 0; i < framedPoolCap; i++ {
		<-srv.got
	}
	waiting := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			_, err := pool.put(chunk.Key{Blob: 1, Version: 2, Index: uint32(i)}, []byte("x"))
			waiting <- err
		}(i)
	}
	pool.close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-waiting:
			if !errors.Is(err, ErrClientClosed) {
				t.Errorf("waiter %d: %v, want ErrClientClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("an acquirer queued behind the full pool hung through close")
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
}
