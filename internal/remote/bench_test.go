package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// countingListener counts the connections a node accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// vmConnsPerClient is what DialFramed opens before any call is made: one
// framed connection to the VM endpoint.
const vmConnsPerClient = 1

// startCountedNode boots an all-roles node (8 providers on storeURL
// stores, R=1) behind a counting listener.
func startCountedNode(tb testing.TB, storeURL string, reg *metrics.Registry) (*countingListener, Endpoints) {
	tb.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	cl := &countingListener{Listener: lis}
	mgr := provider.NewManager()
	for i := 0; i < 8; i++ {
		store, err := chunk.OpenStore(storeURL, iosim.NewMeter(iosim.CostModel{}, true))
		if err != nil {
			tb.Fatal(err)
		}
		mgr.Register(provider.New(provider.ID(i), store))
	}
	node, err := serve(cl, Roles{
		VM:      vmanager.New(iosim.CostModel{}),
		Meta:    metadata.NewStore(8, iosim.CostModel{}),
		Data:    provider.NewRouter(mgr),
		Metrics: reg,
	})
	if err != nil {
		lis.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { node.Close() })
	addr := node.Addr()
	return cl, Endpoints{VM: addr, Meta: addr, Data: addr}
}

// putWave stores n distinct 32 KiB chunks concurrently and returns the
// first error.
func putWave(c *Client, version uint64, n int, payload []byte) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Put(chunk.Key{Blob: 1, Version: version, Index: uint32(i)}, payload)
			errs <- err
		}(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// windowed makes calls 0..n-1 from window goroutines, each taking the
// next index as it comes free, and reports whether every call succeeded.
func windowed(window, n int, call func(j int64) error) bool {
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < window; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := next.Add(1) - 1; j < int64(n); j = next.Add(1) - 1 {
				if call(j) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// roundTrips is the trains a client with its metrics in reg has sent:
// each one vectored write and one run of replies.
func roundTrips(reg *metrics.Registry) float64 {
	return reg.Snapshot()["bs_data_train_ops_count"]
}

// fanout runs one benchmark two ways: each, a goroutine per call — what
// every caller did before the pool took batches, and what concurrent lone
// callers still do — and batch, the same calls handed over as one list.
// It reports dials/op (connections accepted per op after a warm-up op; 0
// in steady state) and wire-reqs/op (trains per op).
func fanout(b *testing.B, storeURL string, bytesPerOp int64, setup func(c *Client), each, batch func(c *Client, i int) error) {
	for _, form := range []struct {
		name string
		op   func(c *Client, i int) error
	}{{"each", each}, {"batch", batch}} {
		b.Run(form.name, func(b *testing.B) {
			lis, ep := startCountedNode(b, storeURL, nil)
			c, err := DialFramed(ep)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			reg := metrics.NewRegistry()
			c.SetMetrics(reg)
			if setup != nil {
				setup(c)
			}
			if err := form.op(c, 0); err != nil {
				b.Fatal(err)
			}
			warm, trains := lis.accepted.Load(), roundTrips(reg)
			b.SetBytes(bytesPerOp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := form.op(c, i+1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(lis.accepted.Load()-warm)/float64(b.N), "dials/op")
			b.ReportMetric((roundTrips(reg)-trains)/float64(b.N), "wire-reqs/op")
		})
	}
}

// BenchmarkFramedPutFanout is the data half of one tile_atomic write: 92
// puts of 32 KiB through one framed client over TCP loopback, onto
// null:// stores so the wire is what is timed.
func BenchmarkFramedPutFanout(b *testing.B) {
	const pieces = 92
	payload := bytes.Repeat([]byte{0x5A}, 32<<10)
	data := make([][]byte, pieces)
	for j := range data {
		data[j] = payload
	}
	fanout(b, "null://", pieces*int64(len(payload)), nil,
		func(c *Client, i int) error { return putWave(c, uint64(i), pieces, payload) },
		func(c *Client, i int) error {
			keys := make([]chunk.Key, pieces)
			for j := range keys {
				keys[j] = chunk.Key{Blob: 1, Version: uint64(i), Index: uint32(j)}
			}
			_, err := c.PutMany(keys, data)
			return err
		})
}

// BenchmarkFramedGetFanout is the data half of one tile_atomic read: 122
// gets of 16 KiB through one framed client — each: from a window of 32
// goroutines, every get allocating what it returns; batch: one
// GetManyInto into one buffer, the 122 reads filling it end to end, so
// each of its 4 list gets is read off the socket as one run — served
// from mem:// stores, whose stored slices leave in one vectored write per
// list get, uncopied, so the wire is what is timed — and, client and
// server sharing the process, what B/op counts beyond the bytes
// returned.
func BenchmarkFramedGetFanout(b *testing.B) {
	const fragments, window, size = 122, 32, 16 << 10
	out := make([]byte, fragments*size)
	fanout(b, "mem://", fragments*size,
		func(c *Client) {
			if err := putWave(c, 0, fragments, bytes.Repeat([]byte{0x5A}, size)); err != nil {
				b.Fatal(err)
			}
		},
		func(c *Client, _ int) error {
			ok := windowed(window, fragments, func(j int64) error {
				data, err := c.Get(chunk.Key{Blob: 1, Index: uint32(j)}, 0, size)
				if err == nil && len(data) != size {
					err = io.ErrUnexpectedEOF
				}
				return err
			})
			if !ok {
				return errors.New("a get failed")
			}
			return nil
		},
		func(c *Client, _ int) error {
			reads := make([]blob.ChunkRead, fragments)
			for j := range reads {
				reads[j] = blob.ChunkRead{Key: chunk.Key{Blob: 1, Index: uint32(j)}, At: int64(j) * size, Length: size}
			}
			return c.GetManyInto(out, reads)
		})
}

// BenchmarkFramedPutSerial and BenchmarkFramedGetSerial are the idle
// path: one caller, one 32 KiB chunk at a time. A lone call is a train
// of one through the same code as a train of thirty-two, and must cost
// what a single op did before trains.
func BenchmarkFramedPutSerial(b *testing.B) {
	_, ep := startCountedNode(b, "null://", nil)
	c, err := DialFramed(ep)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte{0x5A}, 32<<10)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Put(chunk.Key{Blob: 1, Index: uint32(i)}, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFramedGetSerial(b *testing.B) {
	_, ep := startCountedNode(b, "mem://", nil)
	c, err := DialFramed(ep)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const size = 32 << 10
	key := chunk.Key{Blob: 1}
	if _, err := c.Put(key, bytes.Repeat([]byte{0x5A}, size)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data, err := c.Get(key, 0, size); err != nil || len(data) != size {
			b.Fatal(err)
		}
	}
}

// BenchmarkFramedPut1MiBWindow8 is checkpoint_restore's shape: 32 puts
// of 1 MiB, 8 in flight. A megabyte chunk
// is a train of one and its payload never fits a write buffer, so trains
// must leave this where it was.
func BenchmarkFramedPut1MiBWindow8(b *testing.B) {
	_, ep := startCountedNode(b, "null://", nil)
	c, err := DialFramed(ep)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const chunks, window = 32, 8
	payload := bytes.Repeat([]byte{0x5A}, 1<<20)
	b.SetBytes(chunks * int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok := windowed(window, chunks, func(j int64) error {
			_, err := c.Put(chunk.Key{Blob: 1, Version: uint64(i), Index: uint32(j)}, payload)
			return err
		})
		if !ok {
			b.Fatal("a put failed")
		}
	}
}

// BenchmarkFramedGet1MiBWindow8 is checkpoint_restore's read shape, the
// mirror of the put benchmark above: 32 gets of 1 MiB from mem:// stores
// under the reader's window of 8. Get allocates what it returns, a
// megabyte a get (client and server share the process, so B/op counts
// both). Server drives one connection by hand, reading replies into a fixed
// buffer, so every allocation counted there is the server's: the router
// opening the chunk (its replica order, the store's reader), none by the
// framed loop that sends it.
func BenchmarkFramedGet1MiBWindow8(b *testing.B) {
	const chunks, window, size = 32, 8, 1 << 20
	boot := func(b *testing.B) *Client {
		_, ep := startCountedNode(b, "mem://", nil)
		c, err := DialFramed(ep)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		payload := bytes.Repeat([]byte{0x5A}, size)
		for j := 0; j < chunks; j++ {
			if _, err := c.Put(chunk.Key{Blob: 1, Index: uint32(j)}, payload); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	b.Run("Get", func(b *testing.B) {
		c := boot(b)
		get := func(j int64) error {
			data, err := c.Get(chunk.Key{Blob: 1, Index: uint32(j)}, 0, size)
			if err == nil && len(data) != size {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		b.SetBytes(chunks * size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !windowed(window, chunks, get) {
				b.Fatal("a get failed")
			}
		}
	})
	b.Run("Server", func(b *testing.B) {
		c := boot(b)
		conn, err := net.Dial("tcp", c.pool.addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte(framedMagic))
		var reqs [chunks][]byte
		for j := range reqs {
			get := getCall(nil, 0, size, chunk.Key{Blob: 1, Index: uint32(j)}, 0)
			reqs[j] = appendGets(nil, []*framedCall{&get})
		}
		// The list's status and the entry's, then the payload.
		reply := make([]byte, 2+size)
		b.SetBytes(chunks * size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := conn.Write(req); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, reply); err != nil || reply[0] != statusOK || reply[1] != statusOK || reply[len(reply)-1] != 0x5A {
					b.Fatalf("reply: status %d, %v", reply[0], err)
				}
			}
		}
	})
}

// BenchmarkReadList is one rank's checkpoint restore through the whole
// client: blob.ReadList of 32 x 1 MiB at a 2 MiB pitch, page 1 MiB, over
// a loopback Client onto mem:// stores. B/op is the number to watch: the
// 32 MiB it returns and little else, every fragment read from its socket
// into its place in that buffer.
func BenchmarkReadList(b *testing.B) {
	_, ep := startCountedNode(b, "mem://", nil)
	c, err := DialFramed(ep)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const segments, size = 32, 1 << 20
	bl, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 2 * segments * size, Page: size})
	if err != nil {
		b.Fatal(err)
	}
	q := make(extent.List, segments)
	for i := range q {
		q[i] = extent.Extent{Offset: int64(i) * 2 * size, Length: size}
	}
	v, err := bl.WriteList(extent.Vec{Extents: q, Buf: bytes.Repeat([]byte{0x5A}, segments*size)}, blob.WriteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(segments * size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if data, err := bl.ReadList(v, q); err != nil || len(data) != segments*size {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodePutParallel is the metadata half of one tile_atomic
// write: 127 tree nodes stored through one client — each: from a window
// of 64 goroutines, a node a call; batch: one PutNodes, which must leave
// in exactly framedPoolCap trains.
func BenchmarkNodePutParallel(b *testing.B) {
	const nodes, window = 127, 64
	node := &segtree.Node{Left: segtree.NodeKey{Version: 1, Size: 512}, Right: segtree.NodeKey{Version: 1, Offset: 512, Size: 512}}
	key := func(i int, j int64) segtree.NodeKey {
		return segtree.NodeKey{Version: uint64(i + 1), Offset: j * 1024, Size: 1024}
	}
	all := make([]*segtree.Node, nodes)
	for j := range all {
		all[j] = node
	}
	fanout(b, "null://", 0, nil,
		func(c *Client, i int) error {
			if !windowed(window, nodes, func(j int64) error { return c.PutNode(1, key(i, j), node) }) {
				return errors.New("a node put failed")
			}
			return nil
		},
		func(c *Client, i int) error {
			keys := make([]segtree.NodeKey, nodes)
			for j := range keys {
				keys[j] = key(i, int64(j))
			}
			return c.PutNodes(1, keys, all)
		})
}

// BenchmarkNodeGetSerial is the idle path: one caller, one node get at
// a time, as a tree walk issues them. It must cost one round trip.
func BenchmarkNodeGetSerial(b *testing.B) {
	_, ep := startCountedNode(b, "null://", nil)
	c, err := DialFramed(ep)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	key := segtree.NodeKey{Version: 1, Size: 1024}
	if err := c.PutNode(1, key, &segtree.Node{Left: segtree.NodeKey{Version: 1, Size: 512}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GetNode(1, key); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric((roundTrips(reg)-1)/float64(b.N), "wire-reqs/op")
}
