package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

func dialFramedClient(t *testing.T, ep Endpoints) *Client {
	t.Helper()
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFramedChunkRoundTrip drives Put/Get/GetFrom over the framed wire
// against a live node and checks payload fidelity for both a
// sub-frame-sized chunk and one spanning several frames.
func TestFramedChunkRoundTrip(t *testing.T) {
	_, ep := startNode(t)
	c := dialFramedClient(t, ep)

	for i, size := range []int{100, maxFrame*2 + 7777} {
		key := chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(j*13 + i)
		}
		ids, err := c.Put(key, data)
		if err != nil {
			t.Fatalf("framed Put(%d bytes): %v", size, err)
		}
		if len(ids) == 0 {
			t.Fatal("framed Put returned no replica set")
		}
		got, err := c.Get(key, 0, int64(size))
		if err != nil {
			t.Fatalf("framed Get(%d bytes): %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("framed Get(%d bytes): payload mismatch", size)
		}
		// Ranged read through the hint path.
		part, fresh, err := c.GetFrom(ids, key, int64(size)/2, int64(size)/4)
		if err != nil {
			t.Fatalf("framed GetFrom: %v", err)
		}
		if fresh != nil {
			t.Fatalf("fresh set on a correct hint: %v", fresh)
		}
		if !bytes.Equal(part, data[size/2:size/2+size/4]) {
			t.Fatal("framed GetFrom: payload mismatch")
		}
	}
}

// TestFramedErrorsKeepConnection checks that server-reported errors
// (double put, missing chunk) travel the wire without poisoning the
// pooled connection: the next operation on the same client succeeds.
func TestFramedErrorsKeepConnection(t *testing.T) {
	// One provider, so the duplicate put lands on the same store and
	// surfaces the ErrExists protocol violation.
	mgr, _ := provider.NewPool(1, iosim.CostModel{})
	node, err := Listen("127.0.0.1:0", Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ep := Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()}
	c := dialFramedClient(t, ep)

	key := chunk.Key{Blob: 2, Version: 1, Index: 0}
	data := bytes.Repeat([]byte("x"), 4096)
	if _, err := c.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put(key, data); err == nil || !strings.Contains(err.Error(), "exists") {
		t.Fatalf("double put: got %v, want exists error", err)
	}
	if _, err := c.Get(chunk.Key{Blob: 99}, 0, 1); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing get: got %v, want not-found error", err)
	}
	// The connection survived both errors.
	got, err := c.Get(key, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after errors: %v", err)
	}
}

// TestFramedAndGobCoexist pins the negotiation: a gob client and a
// framed client share one node, and a full blob write/read cycle works
// through each.
func TestFramedAndGobCoexist(t *testing.T) {
	_, ep := startNode(t)
	gobC := dialClient(t, ep)
	frC := dialFramedClient(t, ep)

	for i, c := range []*Client{gobC, frC} {
		b, err := blob.Create(c.Services(), uint64(i+1), segtree.Geometry{Capacity: 1 << 20, Page: 4096})
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, 64<<10)
		v, err := b.Write(0, data, blob.WriteOptions{})
		if err != nil {
			t.Fatalf("client %d write: %v", i, err)
		}
		got, err := b.ReadAt(v, 0, int64(len(data)))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("client %d read: %v", i, err)
		}
	}
	// Cross-visibility: the framed client reads the blob the gob client
	// wrote.
	b, err := blob.Open(frC.Services(), 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.Latest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(info.Version, 0, 64<<10)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 64<<10)) {
		t.Fatalf("cross-protocol read: %v", err)
	}
}

// TestFramedMetrics checks the data-plane counters advance on a node
// with a metrics role.
func TestFramedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr, _ := provider.NewPool(3, iosim.CostModel{})
	node, err := Listen("127.0.0.1:0", Roles{
		VM:      vmanager.New(iosim.CostModel{}),
		Meta:    metadata.NewStore(2, iosim.CostModel{}),
		Data:    provider.NewRouter(mgr),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ep := Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()}
	c := dialFramedClient(t, ep)

	key := chunk.Key{Blob: 3, Version: 1, Index: 0}
	data := make([]byte, maxFrame+1000) // two frames up, two frames back
	if _, err := c.Put(key, data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(key, 0, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "bs_data_frames_total 4") {
		t.Fatalf("want 4 data frames, got:\n%s", text)
	}
	want := int64(2 * (maxFrame + 1000))
	if !strings.Contains(text, "bs_data_stream_bytes_total "+itoa(want)) {
		t.Fatalf("want %d stream bytes, got:\n%s", want, text)
	}
}

// TestFramedPoolSurvivesNodeRestart is the regression test for the
// never-validated connection pool: after a data-node restart every
// pooled socket is dead, and the first op on each used to surface a
// transport error to the caller. The pool must instead detect the
// stale socket, flush its idle list, and transparently retry the op on
// a fresh dial.
func TestFramedPoolSurvivesNodeRestart(t *testing.T) {
	mgr, _ := provider.NewPool(1, iosim.CostModel{})
	roles := Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	node, err := Listen("127.0.0.1:0", roles)
	if err != nil {
		t.Fatal(err)
	}
	addr := node.Addr()
	ep := Endpoints{VM: addr, Meta: addr, Data: addr}
	c := dialFramedClient(t, ep)

	key1 := chunk.Key{Blob: 1, Version: 1, Index: 0}
	data := bytes.Repeat([]byte("durable"), 1000)
	if _, err := c.Put(key1, data); err != nil {
		t.Fatal(err)
	}
	// The put's connection is now idle in the pool. Restart the node on
	// the same address with the same stores — the pooled socket is dead.
	node.Close()
	node2, err := listenRetry(addr, roles)
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()

	key2 := chunk.Key{Blob: 1, Version: 1, Index: 1}
	if _, err := c.Put(key2, data); err != nil {
		t.Fatalf("put after node restart: %v", err)
	}
	got, err := c.Get(key1, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get after node restart: %v", err)
	}
	// Reads retry too, and repeated ops keep working (the flushed pool
	// refilled with live connections).
	for i := 0; i < 4; i++ {
		if _, err := c.Get(key2, 0, int64(len(data))); err != nil {
			t.Fatalf("get %d after restart: %v", i, err)
		}
	}
	// A genuinely dead peer still fails: kill the node for good and the
	// fresh-dial retry must surface the dial error, not loop.
	node2.Close()
	if _, err := c.Put(chunk.Key{Blob: 1, Version: 1, Index: 2}, data); err == nil {
		t.Fatal("put against a dead node must fail")
	}
}

// listenRetry re-binds an exact address, retrying briefly while the
// kernel releases the old listener's port.
func listenRetry(addr string, roles Roles) (node *Node, err error) {
	for i := 0; i < 100; i++ {
		if node, err = Listen(addr, roles); err == nil {
			return node, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil, err
}

// TestFramedServerRejectsOversizedPut speaks the raw wire protocol and
// forges a put header declaring a 2 GiB payload: the server must answer
// with the typed size-bound error — BEFORE the router sees the request,
// and without desyncing the connection.
func TestFramedServerRejectsOversizedPut(t *testing.T) {
	_, ep := startNode(t)
	conn, err := net.Dial("tcp", ep.Data)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte(framedMagic)); err != nil {
		t.Fatal(err)
	}

	forge := func(length int64, body []byte) {
		t.Helper()
		hdr := make([]byte, frameHeaderLen)
		hdr[0] = opPut
		binary.LittleEndian.PutUint64(hdr[8:], 42) // blob
		binary.LittleEndian.PutUint64(hdr[32:], uint64(length))
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		if len(body) > 0 {
			var word [4]byte
			binary.LittleEndian.PutUint32(word[:], uint32(len(body)))
			conn.Write(word[:])
			conn.Write(body)
		}
		conn.Write([]byte{0, 0, 0, 0}) // terminator
	}

	forge(1<<31, nil)
	status, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	if status != 1 {
		t.Fatalf("oversized put status = %d, want error status 1", status)
	}
	msg, err := readErrString(br)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "max chunk size") {
		t.Fatalf("oversized put error = %q, want the size-bound error", msg)
	}

	// The rejection drained the body: the same connection still serves
	// a well-formed put.
	forge(5, []byte("hello"))
	if status, err = br.ReadByte(); err != nil || status != 0 {
		t.Fatalf("put after rejection: status %d, %v", status, err)
	}
	if ids, err := readIDs(br); err != nil || len(ids) == 0 {
		t.Fatalf("put after rejection: ids %v, %v", ids, err)
	}
}

// TestFramedCodedRoundTrip drives the framed wire against a router in
// rs-4+2 mode: fragments place over the wire-invisible coded path, and
// the Coding RPC reports the mode to operators.
func TestFramedCodedRoundTrip(t *testing.T) {
	mgr, _ := provider.NewPool(6, iosim.CostModel{})
	r := provider.NewRouter(mgr)
	if err := r.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	node, err := Listen("127.0.0.1:0", Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: r,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ep := Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()}
	c := dialFramedClient(t, ep)

	key := chunk.Key{Blob: 5, Version: 1, Index: 0}
	data := make([]byte, maxFrame+12345)
	for i := range data {
		data[i] = byte(i * 7)
	}
	ids, err := c.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 6 {
		t.Fatalf("coded put returned %d fragment positions, want 6", len(ids))
	}
	got, err := c.Get(key, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("coded framed Get: %v", err)
	}
	// Hinted read: the positional hint matches placement, so no refresh.
	part, fresh, err := c.GetFrom(ids, key, 100, 5000)
	if err != nil || !bytes.Equal(part, data[100:5100]) {
		t.Fatalf("coded framed GetFrom: %v", err)
	}
	if fresh != nil {
		t.Fatalf("fresh set on an up-to-date coded hint: %v", fresh)
	}
	rep, err := c.Coding()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Coded || rep.K != 4 || rep.M != 2 || rep.Quorum != 5 {
		t.Fatalf("Coding RPC = %+v", rep)
	}
	// An oversized put travels the framed client path as a server-side
	// error that keeps the connection pooled.
	r.SetMaxChunkSize(1024)
	if _, err := c.Put(chunk.Key{Blob: 6}, make([]byte, 4096)); err == nil || !strings.Contains(err.Error(), "max chunk size") {
		t.Fatalf("oversized framed put = %v, want size-bound error", err)
	}
	if _, err := c.Get(key, 0, 10); err != nil {
		t.Fatalf("get after oversized put: %v", err)
	}
}

func itoa(v int64) string {
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// fakeFramedGets serves framed gets on a loopback listener, answering
// each with the given frame sizes instead of the bytes requested. The
// returned channel gets one value per connection the client ended.
func fakeFramedGets(t *testing.T, frames []int) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				magic := make([]byte, len(framedMagic))
				if _, err := io.ReadFull(br, magic); err != nil || string(magic) != framedMagic {
					return
				}
				for {
					if _, err := readHeader(br); err != nil {
						ch <- struct{}{} // EOF, or a reset if replies went unread
						return
					}
					bw := bufio.NewWriter(conn)
					bw.WriteByte(0)   // status ok
					writeIDs(bw, nil) // no fresh replica set
					for _, n := range frames {
						writeU32(bw, uint32(n))
						bw.Write(bytes.Repeat([]byte{0xAB}, n))
					}
					writeU32(bw, 0)
					if bw.Flush() != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), ch
}

// TestFramedGetRejectsWrongLengthReply: a reply whose frames do not sum
// to the requested length — one frame too few, one too many — must fail
// the op and cost the connection: handed on as-is, a short fragment
// reads as silent zeros and a long one grows without bound.
func TestFramedGetRejectsWrongLengthReply(t *testing.T) {
	key := chunk.Key{Blob: 1, Version: 2, Index: 3}
	for name, tc := range map[string]struct {
		frames []int
		want   string
	}{
		"one frame too few":  {[]int{1000, 1000}, "short reply"},
		"one frame too many": {[]int{1000, 1000, 1000, 1000}, "exceeds"},
		"last frame too big": {[]int{1000, 1000, 1001}, "exceeds"},
	} {
		t.Run(name, func(t *testing.T) {
			addr, closed := fakeFramedGets(t, tc.frames)
			pool := newFramedPool(addr)
			defer pool.close()
			data, _, err := pool.get(nil, key, 0, 3000)
			if err == nil {
				t.Fatalf("got %d bytes and no error for a 3000-byte read", len(data))
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), key.String()) {
				t.Fatalf("error %q: want %q and the chunk key", err, tc.want)
			}
			if n := len(pool.idle); n != 0 {
				t.Fatalf("%d connections pooled after a desynchronised reply", n)
			}
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("the client kept the connection open")
			}
		})
	}
	// The control: an exact reply is returned and keeps its connection.
	addr, _ := fakeFramedGets(t, []int{1000, 1000, 1000})
	pool := newFramedPool(addr)
	defer pool.close()
	data, _, err := pool.get(nil, key, 0, 3000)
	if err != nil || len(data) != 3000 || data[2999] != 0xAB {
		t.Fatalf("exact reply: %d bytes, %v", len(data), err)
	}
	if len(pool.idle) != 1 {
		t.Fatalf("%d connections pooled after a good reply, want 1", len(pool.idle))
	}
}
