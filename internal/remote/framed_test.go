package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// TestFramedChunkRoundTrip drives Put/Get/GetFrom over the framed wire
// against a live node and checks payload fidelity for both a chunk
// shorter than a body's read step and one spanning several.
func TestFramedChunkRoundTrip(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)

	for i, size := range []int{100, bodyStep*2 + 7777} {
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
		// Ranged read through the deprecated GetFrom: the set it is
		// handed goes nowhere, and no fresh set comes back.
		part, fresh, err := c.GetFrom(ids, key, int64(size)/2, int64(size)/4)
		if err != nil {
			t.Fatalf("framed GetFrom: %v", err)
		}
		if fresh != nil {
			t.Fatalf("GetFrom returned a fresh set: %v", fresh)
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
	mgr := memPool(1, 0)
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
	c := dialClient(t, ep)

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

// TestFramedAndHTTPCoexist pins the negotiation: framed calls and
// operator calls over HTTP share one node and one port, so a full blob
// write/read cycle — tickets, payloads and nodes, all framed — and an
// operator call work side by side, from two clients at once; and a
// client that speaks neither is refused by the HTTP server, without
// disturbing the framed clients.
func TestFramedAndHTTPCoexist(t *testing.T) {
	_, ep := startNode(t)
	c1, c2 := dialClient(t, ep), dialClient(t, ep)

	for i, c := range []*Client{c1, c2} {
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
		if us, err := opsOf(c).Usage(); err != nil || len(us) != 3 {
			t.Fatalf("client %d usage over HTTP beside framed transfers: %v, %v", i, us, err)
		}
	}

	old, err := net.Dial("tcp", ep.Data)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.SetDeadline(time.Now().Add(10 * time.Second))
	// Neither the framed magic nor a request line.
	if _, err := old.Write([]byte("BSD0 hello\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if reply, _ := io.ReadAll(old); !strings.HasPrefix(string(reply), "HTTP/1.1 400 Bad Request") {
		t.Fatalf("a client speaking neither protocol got %q, want HTTP's refusal", reply)
	}

	// Cross-visibility: the second client reads the blob the first wrote.
	b, err := blob.Open(c2.Services(), 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.Latest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(info.Version, 0, 64<<10)
	if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{1}, 64<<10)) {
		t.Fatalf("cross-client read: %v", err)
	}
}

// TestFramedMetrics checks the data-plane counters advance on a node
// with a metrics role.
func TestFramedMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	mgr := memPool(3, 0)
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
	c := dialClient(t, ep)

	key := chunk.Key{Blob: 3, Version: 1, Index: 0}
	data := make([]byte, bodyStep+1000) // a payload up, its bytes back
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
	if strings.Contains(text, "bs_data_frames_total") {
		t.Fatalf("a series of frames the wire no longer has:\n%s", text)
	}
	want := int64(2 * (bodyStep + 1000))
	if !strings.Contains(text, "bs_data_stream_bytes_total "+itoa(want)) {
		t.Fatalf("want %d stream bytes, got:\n%s", want, text)
	}

	// Per-op requests, and requests answered per reply flush: the two
	// serial calls above were each answered alone; a wave of concurrent
	// small gets is not, and both ends' histograms account for every
	// request exactly once.
	creg := metrics.NewRegistry()
	c.SetMetrics(creg)
	const wave = 64
	var wg sync.WaitGroup
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(key, 0, 512); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap, csnap := reg.Snapshot(), creg.Snapshot()
	for series, want := range map[string]float64{
		`bs_data_requests_total{op="put"}`: 1,
		`bs_data_requests_total{op="get"}`: 1 + wave,
		`bs_data_flush_ops_sum`:            2 + wave,
	} {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if got := csnap["bs_data_train_ops_sum"]; got != wave {
		t.Errorf("client bs_data_train_ops_sum = %v, want %d", got, wave)
	}
	if trains := csnap["bs_data_train_ops_count"]; trains < 1 || trains >= wave {
		t.Errorf("%v trains carried %d concurrent gets on %d connections: none combined", trains, wave, framedPoolCap)
	}
	if flushes := snap["bs_data_flush_ops_count"]; flushes < 3 || flushes > 2+wave {
		t.Errorf("bs_data_flush_ops_count = %v for %d requests", flushes, 2+wave)
	}
}

// TestFramedPoolSurvivesNodeRestart is the regression test for the
// never-validated connection pool: after a node restart every pooled
// socket to it is dead, and the first op on each used to surface a
// transport error to the caller (and, for node calls on their gob
// connection, every later op for the life of the client). The pool must
// instead detect the stale socket, flush its idle list, and
// transparently retry the op on a fresh dial. Roles are split, so each
// row restarts only the node its calls go to.
func TestFramedPoolSurvivesNodeRestart(t *testing.T) {
	mgr := memPool(1, 0)
	vmNode, err := Listen("127.0.0.1:0", Roles{VM: vmanager.New(iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer vmNode.Close()
	data := bytes.Repeat([]byte("durable"), 1000)
	for _, tc := range []struct {
		name  string
		roles Roles // of the node restarted, its stores kept across the restart
		put   func(c *Client, i int) error
		get   func(c *Client, i int) error
	}{
		{"data node", Roles{Data: provider.NewRouter(mgr)},
			func(c *Client, i int) error {
				_, err := c.Put(chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, data)
				return err
			},
			func(c *Client, i int) error {
				got, err := c.Get(chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, 0, int64(len(data)))
				if err == nil && !bytes.Equal(got, data) {
					err = errors.New("another chunk's bytes")
				}
				return err
			}},
		{"meta node", Roles{Meta: metadata.NewStore(2, iosim.CostModel{})},
			func(c *Client, i int) error {
				return c.PutNode(1, segtree.NodeKey{Version: 1, Offset: int64(i) * 512, Size: 512}, leafNode(uint64(i)))
			},
			func(c *Client, i int) error {
				got, err := c.GetNode(1, segtree.NodeKey{Version: 1, Offset: int64(i) * 512, Size: 512})
				if err == nil && !reflect.DeepEqual(got, leafNode(uint64(i))) {
					err = errors.New("another node")
				}
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The other framed role lives on a node that is never touched.
			other, err := Listen("127.0.0.1:0", Roles{Meta: metadata.NewStore(2, iosim.CostModel{}), Data: provider.NewRouter(mgr)})
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			node, err := Listen("127.0.0.1:0", tc.roles)
			if err != nil {
				t.Fatal(err)
			}
			addr := node.Addr()
			ep := Endpoints{VM: vmNode.Addr(), Meta: other.Addr(), Data: addr}
			if tc.roles.Meta != nil {
				ep.Meta, ep.Data = addr, other.Addr()
			}
			c := dialClient(t, ep)

			if err := tc.put(c, 0); err != nil {
				t.Fatal(err)
			}
			// The put's connection is now idle in the pool. Restart the node
			// on the same address with the same stores — the pooled socket
			// is dead.
			node.Close()
			node2, err := listenRetry(addr, tc.roles)
			if err != nil {
				t.Fatal(err)
			}
			defer node2.Close()

			if err := tc.put(c, 1); err != nil {
				t.Fatalf("put after node restart: %v", err)
			}
			if err := tc.get(c, 0); err != nil {
				t.Fatalf("get after node restart: %v", err)
			}
			// Reads retry too, and repeated ops keep working (the flushed
			// pool refilled with live connections).
			for i := 0; i < 4; i++ {
				if err := tc.get(c, 1); err != nil {
					t.Fatalf("get %d after restart: %v", i, err)
				}
			}
			// A genuinely dead peer still fails, op by op: kill the node
			// and the fresh-dial retry must surface the dial error, not
			// loop — and a third start serves the same client again.
			node2.Close()
			for i := 0; i < 2; i++ {
				if err := tc.put(c, 2); err == nil {
					t.Fatal("put against a dead node must fail")
				}
			}
			node3, err := listenRetry(addr, tc.roles)
			if err != nil {
				t.Fatal(err)
			}
			defer node3.Close()
			if err := tc.put(c, 2); err != nil {
				t.Fatalf("put after the node came back: %v", err)
			}
		})
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

// TestFramedServerRejectsOversizedPut speaks the raw wire protocol: a
// put header declaring more than the chunk bound is answered with the
// typed size-bound error — BEFORE the router sees the request — and its
// declared bytes are skipped as they arrive, so the connection serves on.
func TestFramedServerRejectsOversizedPut(t *testing.T) {
	node, ep := startNode(t)
	node.fr.r.SetMaxChunkSize(4 << 10)
	conn, br := rawFramedConn(t, ep.Data)
	key := chunk.Key{Blob: 42}

	if _, err := conn.Write(rawPut(key, 8<<10, make([]byte, 8<<10))); err != nil {
		t.Fatal(err)
	}
	if _, msg := readPutReply(t, br); !strings.Contains(msg, "max chunk size") {
		t.Fatalf("oversized put error = %q, want the size-bound error", msg)
	}
	for _, u := range node.fr.r.Usage() {
		if u.Chunks != 0 {
			t.Fatalf("the refused put stored a chunk on provider %d", u.Provider)
		}
	}

	// The refusal skipped the payload: the same connection still serves
	// a well-formed put.
	if _, err := conn.Write(rawPut(key, 5, []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if ids, msg := readPutReply(t, br); len(ids) == 0 {
		t.Fatalf("put after rejection: ids %v, error %q", ids, msg)
	}
}

// rawFramedConn opens a framed connection by hand, for tests that speak
// the wire format themselves.
func rawFramedConn(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte(framedMagic)); err != nil {
		t.Fatal(err)
	}
	return conn, bufio.NewReader(conn)
}

// rawPut is the wire form of a put whose header declares length and
// whose payload is payload, of that length or not.
func rawPut(key chunk.Key, length int64, payload []byte) []byte {
	return append(appendHeader(nil, &frameHeader{op: opPut, key: key, length: length}), payload...)
}

// appendRawBody appends body behind its length word.
func appendRawBody(req []byte, body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(req, uint32(len(body))), body...)
}

// skipRequestBody skips what follows the header h of a request — a
// put's payload, or a body — as a fake server that answers without it
// must.
func skipRequestBody(br *bufio.Reader, h frameHeader) error {
	n := h.length
	if h.op != opPut {
		n = 0
		if bodyLimit(h.op) > 0 {
			w, err := readU32(br)
			if err != nil {
				return err
			}
			n = int64(w)
		}
	}
	_, err := br.Discard(int(n))
	return err
}

// readPutReply reads one put reply: the replica set, or the server's
// error message.
func readPutReply(t *testing.T, br *bufio.Reader) (ids []provider.ID, msg string) {
	t.Helper()
	status, err := br.ReadByte()
	if err != nil {
		t.Fatal(err)
	}
	if status != 0 {
		if msg, err = readErrString(br); err != nil {
			t.Fatal(err)
		}
		return nil, msg
	}
	if ids, err = readIDs(br); err != nil {
		t.Fatal(err)
	}
	return ids, ""
}

// TestFramedServerRejectsOverlongPut: a put longer than the chunk bound
// inside a train of pipelined puts, written in one go, fails alone — its
// train-mates stored, the connection aligned on the put behind it.
func TestFramedServerRejectsOverlongPut(t *testing.T) {
	node, ep := startNode(t)
	node.fr.r.SetMaxChunkSize(4 << 10)
	conn, br := rawFramedConn(t, ep.Data)
	key := func(i uint32) chunk.Key { return chunk.Key{Blob: 42, Version: 1, Index: i} }
	overlong := bytes.Repeat([]byte{0xEE}, 4<<10+1)

	train := rawPut(key(0), 5, []byte("first"))
	train = append(train, rawPut(key(1), int64(len(overlong)), overlong)...)
	train = append(train, rawPut(key(2), 5, []byte("third"))...)
	if _, err := conn.Write(train); err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{false, true, false} {
		ids, msg := readPutReply(t, br)
		if wantErr != (msg != "") || wantErr == (len(ids) > 0) || (wantErr && !strings.Contains(msg, "max chunk size")) {
			t.Fatalf("train put %d: ids %v, error %q", i, ids, msg)
		}
	}
	c := dialClient(t, ep)
	for i, want := range []string{"first", "", "third"} {
		got, err := c.Get(key(uint32(i)), 0, 5)
		if (want == "") != (err != nil) || string(got) != want {
			t.Fatalf("chunk %d: %q, %v; want %q", i, got, err, want)
		}
	}
}

// rawGets is the wire form of a list get of the calls.
func rawGets(calls ...framedCall) []byte {
	ptrs := make([]*framedCall, len(calls))
	for i := range calls {
		ptrs[i] = &calls[i]
	}
	return appendGets(nil, ptrs)
}

// rawNodeOp is the wire form of a node op; body is a put's.
func rawNodeOp(op byte, blob uint64, key segtree.NodeKey, body []byte) []byte {
	req := appendHeader(nil, &frameHeader{op: op, key: chunk.Key{Blob: blob, Version: key.Version}, off: key.Offset, length: key.Size})
	if op != opNodePut {
		return req
	}
	return appendRawBody(req, body)
}

// readNodeReply reads the reply to one node op sent by hand: the node
// (encoded), a miss, or the server's error message.
func readNodeReply(t *testing.T, br *bufio.Reader, op byte) (enc []byte, miss bool, msg string) {
	t.Helper()
	c := &framedCall{h: frameHeader{op: op}}
	if err := (&framedConn{br: br}).readReply(c); err != nil {
		t.Fatalf("reply to node op %d: %v", op, err)
	}
	if c.err != nil {
		return nil, false, c.err.Error()
	}
	return c.data, op == opNodeTryGet && c.data == nil, ""
}

// TestFramedServerBoundsNodeOps speaks the raw wire protocol: what a
// node put carries comes straight off the wire, so a body over the
// bound, a body that is no node and a different node under a stored key
// are each refused in-band, alone — their train-mates answered, the
// connection aligned, nothing stored — a node may arrive in pieces, and
// the two kinds of miss are told apart.
func TestFramedServerBoundsNodeOps(t *testing.T) {
	node, ep := startNode(t)
	store := node.fr.nodes
	conn, br := rawFramedConn(t, ep.Meta)
	key := func(i int64) segtree.NodeKey { return segtree.NodeKey{Version: 1, Offset: i * 512, Size: 512} }
	good := func(i int64) []byte { return segtree.AppendNode(nil, leafNode(uint64(i))) }
	expect := func(what string, op byte, wantErr string) []byte {
		t.Helper()
		enc, _, msg := readNodeReply(t, br, op)
		if (wantErr == "") != (msg == "") || !strings.Contains(msg, wantErr) {
			t.Fatalf("%s answered %q, want %q", what, msg, wantErr)
		}
		return enc
	}

	// A step of bytes past the bound, skipped as they arrive.
	huge := make([]byte, maxNodeBody+bodyStep)
	conn.Write(rawNodeOp(opNodePut, 1, key(0), huge))
	expect("an oversized node put", opNodePut, "exceeds the limit of 4194304")
	// Exactly the bound is read whole, and refused only for not being a node.
	conn.Write(rawNodeOp(opNodePut, 1, key(0), huge[:maxNodeBody]))
	expect("a bound-sized body of zeros", opNodePut, "inner node of "+itoa(maxNodeBody)+" bytes")

	// Seven requests in two writes: the refusals fail alone. The fifth
	// is the same node again, its bytes split across the two writes.
	var train []byte
	train = append(train, rawNodeOp(opNodePut, 1, key(1), good(1))...)
	train = append(train, rawNodeOp(opNodePut, 1, key(2), []byte("not a node"))...)
	train = append(train, rawNodeOp(opNodePut, 1, key(2), huge[:maxNodeBody+1])...) // one byte past the bound
	train = append(train, rawNodeOp(opNodePut, 1, key(1), good(9))...)              // key(1) holds another node
	same := rawNodeOp(opNodePut, 1, key(1), good(1))
	conn.Write(append(train, same[:frameHeaderLen+4+20]...))
	time.Sleep(10 * time.Millisecond)                                                   // the server reads the first piece alone
	train = append(same[frameHeaderLen+4+20:], rawNodeOp(opNodePut, 1, key(3), nil)...) // no body at all
	train = append(train, rawNodeOp(opNodePut, 1, key(4), good(4))...)
	conn.Write(train)
	for i, wantErr := range []string{"", "unknown node kind 110", "exceeds the limit of 4194304", metadata.ErrExists.Error(), "", "empty node encoding", ""} {
		expect("train put "+itoa(int64(i+1)), opNodePut, wantErr)
	}
	if n := store.Count(); n != 2 {
		t.Fatalf("the store holds %d nodes, want the 2 good ones", n)
	}

	// Gets in one write: a hit, the two kinds of miss, a try-get hit.
	var gets []byte
	for _, g := range []struct {
		op  byte
		key segtree.NodeKey
	}{{opNodeGet, key(1)}, {opNodeGet, key(2)}, {opNodeTryGet, key(2)}, {opNodeTryGet, key(4)}} {
		gets = append(gets, rawNodeOp(g.op, 1, g.key, nil)...)
	}
	conn.Write(gets)
	if enc := expect("a get", opNodeGet, ""); !bytes.Equal(enc, good(1)) {
		t.Fatalf("get returned %x", enc)
	}
	_, wantErr := store.GetNode(1, key(2))
	expect("a get of a node never stored", opNodeGet, wantErr.Error())
	if enc, miss, msg := readNodeReply(t, br, opNodeTryGet); !miss || enc != nil || msg != "" {
		t.Fatalf("a try-get of a node never stored: %x, miss %v, %q", enc, miss, msg)
	}
	if enc, miss, msg := readNodeReply(t, br, opNodeTryGet); miss || !bytes.Equal(enc, good(4)) {
		t.Fatalf("a try-get of a stored node: %x, miss %v, %q", enc, miss, msg)
	}

	// An op code nobody defined is a protocol violation: the connection.
	for _, op := range []byte{0, opBuildTree + 1} {
		conn, br := rawFramedConn(t, ep.Meta)
		conn.Write(appendHeader(nil, &frameHeader{op: op}))
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("after op %d: %v, want the connection closed", op, err)
		}
	}
}

// TestFramedServerRefusesLengths is the table of what a request's
// length can be refused for. A body over its op's bound and a put
// declaring more than the chunk bound are refused in-band, their
// declared bytes skipped as they arrive, and the connection serves the
// put behind them; a put declaring a negative length is answered with
// the size-bound error and then costs the connection, nothing saying
// where its payload ends.
func TestFramedServerRefusesLengths(t *testing.T) {
	node, ep := startNode(t)
	node.fr.r.SetMaxChunkSize(4 << 10)
	key := chunk.Key{Blob: 7, Version: 1}
	overBound := appendRawBody(appendHeader(nil, &frameHeader{op: opWalkNodes, key: key}), make([]byte, maxWalkBody+1))
	for _, tc := range []struct {
		name, want string
		req        []byte
		kept       bool
	}{
		{"a body over its op's bound", "exceeds the limit of " + itoa(maxWalkBody), overBound, true},
		{"a put over the chunk bound", "exceeds max chunk size 4096", rawPut(key, 8<<10, make([]byte, 8<<10)), true},
		{"a put of a negative length", "declared chunk size -1", rawPut(key, -1, []byte("torn")), false},
	} {
		conn, br := rawFramedConn(t, ep.Data)
		key.Index++
		conn.Write(append(tc.req, rawPut(key, 2, []byte("ok"))...))
		if reported, err := readStatus(br); err != nil || reported == nil || !strings.Contains(reported.Error(), tc.want) {
			t.Fatalf("%s: answered %v, %v; want %q", tc.name, reported, err, tc.want)
		}
		if !tc.kept {
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("%s: %v after the refusal, want the connection closed", tc.name, err)
			}
			continue
		}
		if ids, msg := readPutReply(t, br); len(ids) == 0 {
			t.Fatalf("%s: the put behind it answered %q", tc.name, msg)
		}
	}
}

// TestLyingLengthWordsAllocateLittle: a body's length word comes
// straight off the wire. One that claims its op's bound and carries ten
// bytes before the peer hangs up costs at most a read step of buffer,
// never the bound — at the server, for each op that sends a body, and
// at the client, for a node-get or version-manager reply.
func TestLyingLengthWordsAllocateLittle(t *testing.T) {
	const most = 1 << 20
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	mgr := memPool(2, 0)
	fs := newFramedServer(Roles{VM: vmanager.New(iosim.CostModel{}), Meta: metadata.NewStore(2, iosim.CostModel{}), Data: provider.NewRouter(mgr)})
	for _, op := range []byte{opNodePut, opAssignTicket, opWalkNodes, opBuildTree, opGet} {
		req := binary.LittleEndian.AppendUint32(appendHeader(nil, &frameHeader{op: op, key: chunk.Key{Blob: 1}}), uint32(bodyLimit(op)))
		req = append(req, make([]byte, 10)...)
		client, server := net.Pipe()
		go func() {
			client.Write(req)
			client.Close()
		}()
		br := bufio.NewReaderSize(server, 64<<10)
		if n := allocated(func() { fs.serve(server, br) }); n >= most {
			t.Errorf("op %d: a body claiming %d bytes and carrying 10 cost the server %d bytes", op, bodyLimit(op), n)
		}
	}
	for op, limit := range map[byte]int{opNodeGet: maxNodeBody, opVersions: maxVMBody} {
		reply := binary.LittleEndian.AppendUint32([]byte{statusOK}, uint32(limit))
		fc := &framedConn{br: bufio.NewReader(bytes.NewReader(append(reply, make([]byte, 10)...)))}
		var err error
		if n := allocated(func() { err = fc.readReply(&framedCall{h: frameHeader{op: op}}) }); n >= most || err == nil {
			t.Errorf("op %d: a reply claiming %d bytes and carrying 10 cost the client %d bytes (%v)", op, limit, n, err)
		}
	}
}

// TestFramedOldWireVersionIsNotServed: a peer of another wire version
// opens with its own magic — BSD1; BSD2, whose gets carried replica
// hints and whose replies carried fresh sets; or BSD3, which had no build
// op — and the node does not
// serve it as framed: the connection lands on the HTTP server, which
// answers it as a malformed request, while the same request behind the
// current magic gets its framed reply.
func TestFramedOldWireVersionIsNotServed(t *testing.T) {
	_, ep := startNode(t)
	req := appendHeader(nil, &frameHeader{op: opVersions, key: chunk.Key{Blob: 1}})
	for _, magic := range []string{"BSD1", "BSD2", "BSD3", framedMagic} {
		conn, err := net.Dial("tcp", ep.VM)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		br := bufio.NewReader(conn)
		if magic == framedMagic {
			conn.Write(append([]byte(magic), req...))
			if reported, err := readStatus(br); err != nil || !errors.Is(reported, vmanager.ErrUnknownBlob) {
				t.Fatalf("behind %s: %v, %v; want the framed error reply", magic, reported, err)
			}
			continue
		}
		conn.Write(append(append([]byte(magic), req...), "\r\n"...))
		if line, err := br.ReadString('\n'); !strings.HasPrefix(line, "HTTP/1.1 400 ") {
			t.Fatalf("behind %s: %q, %v; want the HTTP server's refusal", magic, line, err)
		}
	}
}

// TestFramedHeaderReservedByteClosesTheConnection: where the wire before
// BSD3 put a replica hint's count, a header now has a byte that must be
// 0. A request whose byte is not is a protocol violation: the node
// answers nothing and closes the connection, while the same request with
// the byte 0 is served.
func TestFramedHeaderReservedByteClosesTheConnection(t *testing.T) {
	_, ep := startNode(t)
	req := appendHeader(nil, &frameHeader{op: opVersions, key: chunk.Key{Blob: 1}})
	conn, br := rawFramedConn(t, ep.VM)
	conn.Write(req)
	if reported, err := readStatus(br); err != nil || !errors.Is(reported, vmanager.ErrUnknownBlob) {
		t.Fatalf("reserved byte 0: %v, %v; want the framed error reply", reported, err)
	}
	req[2] = 1
	conn.Write(req)
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("reserved byte 1: read %d, %v; want the connection closed", b, err)
	}
}

// TestFramedServerRefusesOpsOfAMissingRole: a node is told apart by what
// it was started with. A meta-only node refuses a chunk op and a
// data-only node a node op or a walk — in-band, a body drained — and the
// connection goes on serving the ops of the role the node does host.
func TestFramedServerRefusesOpsOfAMissingRole(t *testing.T) {
	metaNode, err := Listen("127.0.0.1:0", Roles{Meta: metadata.NewStore(2, iosim.CostModel{})})
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
	ckey, nkey := chunk.Key{Blob: 1, Version: 1}, segtree.NodeKey{Version: 1, Size: 512}
	enc := segtree.AppendNode(nil, leafNode(1))

	conn, br := rawFramedConn(t, metaNode.Addr())
	req := rawPut(ckey, 5, []byte("hello"))
	req = append(req, rawGets(getCall(nil, 0, 5, ckey, 0))...)
	req = append(req, rawNodeOp(opNodePut, 1, nkey, enc)...)
	conn.Write(req)
	if _, msg := readPutReply(t, br); msg != errNoDataRole.Error() {
		t.Fatalf("chunk put on a meta-only node: %q", msg)
	}
	get := getCall(nil, 0, 5, ckey, 0)
	if err := (&framedConn{c: conn, br: br}).readGets([]*framedCall{&get}); err != nil || get.err == nil || get.err.Error() != errNoDataRole.Error() {
		t.Fatalf("chunk get on a meta-only node: %v, %v", err, get.err)
	}
	if _, _, msg := readNodeReply(t, br, opNodePut); msg != "" {
		t.Fatalf("node put after the refusals, same connection: %q", msg)
	}

	conn, br = rawFramedConn(t, dataNode.Addr())
	req = rawNodeOp(opNodePut, 1, nkey, enc)
	req = append(req, rawNodeOp(opNodeGet, 1, nkey, nil)...)
	req = append(req, rawNodeOp(opNodeTryGet, 1, nkey, nil)...)
	req = append(req, rawWalk(1, walkBody(walkPart{nkey, extent.List{nkey.Range()}}))...)
	req = append(req, rawPut(ckey, 5, []byte("hello"))...)
	conn.Write(req)
	for _, op := range []byte{opNodePut, opNodeGet, opNodeTryGet, opWalkNodes} {
		if _, _, msg := readNodeReply(t, br, op); msg != errNoMetaRole.Error() {
			t.Fatalf("node op %d on a data-only node: %q", op, msg)
		}
	}
	if ids, msg := readPutReply(t, br); len(ids) == 0 {
		t.Fatalf("chunk put after the refusals, same connection: %q", msg)
	}

	// A client wired the wrong way round gets the same answers, per call.
	_, ep := startNode(t)
	c := dialClient(t, Endpoints{VM: ep.VM, Meta: dataNode.Addr(), Data: metaNode.Addr()})
	if err := c.PutNode(1, nkey, leafNode(1)); err == nil || err.Error() != errNoMetaRole.Error() {
		t.Fatalf("PutNode to a data-only node: %v", err)
	}
}

// TestFramedServerAnswersLoneAndPipelinedRequests is the interop check
// in the other direction, with a raw client standing in for one built
// before trains: a request sent alone is answered without a second one
// arriving (the flush rule), and requests written back to back — list
// gets of one among them — are answered in order.
func TestFramedServerAnswersLoneAndPipelinedRequests(t *testing.T) {
	_, ep := startNode(t)
	conn, br := rawFramedConn(t, ep.Data)
	payload := func(i uint32) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 3000+int(i)) }
	key := func(i uint32) chunk.Key { return chunk.Key{Blob: 7, Version: 1, Index: i} }
	get := func(i uint32, length int) framedCall { return getCall(nil, 0, int64(length), key(i), 0) }
	rawGet := func(i uint32) []byte { return rawGets(get(i, len(payload(i)))) }
	readGet := func(i uint32) {
		t.Helper()
		want := payload(i)
		c := get(i, len(want))
		if err := (&framedConn{c: conn, br: br}).readGets([]*framedCall{&c}); err != nil || c.err != nil {
			t.Fatalf("get %d: %v, %v", i, err, c.err)
		}
		if !bytes.Equal(c.data, want) {
			t.Fatalf("get %d: another chunk's bytes", i)
		}
	}

	// One at a time, as the old client sent them: the header in one
	// write, the body in another, then wait.
	req := rawPut(key(0), int64(len(payload(0))), payload(0))
	conn.Write(req[:frameHeaderLen])
	conn.Write(req[frameHeaderLen:])
	if ids, msg := readPutReply(t, br); len(ids) == 0 {
		t.Fatalf("lone put: %q", msg)
	}
	conn.Write(rawGet(0))
	readGet(0)

	// Back to back: four puts in one write, then their four gets and a
	// miss in one write.
	var puts, gets []byte
	for i := uint32(1); i <= 4; i++ {
		puts = append(puts, rawPut(key(i), int64(len(payload(i))), payload(i))...)
		gets = append(gets, rawGet(i)...)
	}
	conn.Write(puts)
	for i := 1; i <= 4; i++ {
		if ids, msg := readPutReply(t, br); len(ids) == 0 {
			t.Fatalf("pipelined put %d: %q", i, msg)
		}
	}
	conn.Write(append(gets, rawGet(99)...))
	for i := uint32(1); i <= 4; i++ {
		readGet(i)
	}
	miss := get(99, 1)
	if err := (&framedConn{c: conn, br: br}).readGets([]*framedCall{&miss}); err != nil || miss.err == nil || !strings.Contains(miss.err.Error(), "not found") {
		t.Fatalf("pipelined miss: %v, %v", err, miss.err)
	}
}

// TestTrainsMatchRouter drives mixed puts, duplicate puts, gets, ranged
// hinted gets and misses from 64 goroutines through one framed client,
// and holds every answer to the router behind the wire: the bytes, the
// replica sets, and which calls failed — a duplicate fails alone, with
// its train-mates answered.
func TestTrainsMatchRouter(t *testing.T) {
	// R=3 over three providers: a duplicate put collides on every
	// store, and replica sets are rotations worth comparing.
	mgr := memPool(3, 0)
	router := provider.NewRouter(mgr)
	router.SetReplicas(3)
	node, err := Listen("127.0.0.1:0", Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: router,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	c := dialClient(t, Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()})
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)

	const callers, chunks = 64, 4
	payload := func(g, i int) []byte {
		data := make([]byte, 100+(g*chunks+i)*331%(40<<10))
		for j := range data {
			data[j] = byte(g + i*7 + j)
		}
		return data
	}
	var calls atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < chunks; i++ {
				key := chunk.Key{Blob: 9, Version: uint64(g + 1), Index: uint32(i)}
				data := payload(g, i)
				ids, err := c.Put(key, data)
				if err != nil {
					t.Errorf("put %v: %v", key, err)
					return
				}
				if placed, _ := router.Locate(key); !slices.Equal(ids, placed) {
					t.Errorf("put %v: replica set %v over the wire, %v at the router", key, ids, placed)
				}
				if _, err := c.Put(key, data); err == nil || !strings.Contains(err.Error(), "exists") {
					t.Errorf("duplicate put %v: %v, want an exists error", key, err)
				}
				got, err := c.Get(key, 0, int64(len(data)))
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("get %v: %v", key, err)
				}
				direct, err := router.Get(key, 10, 50)
				if err != nil {
					t.Errorf("router get %v: %v", key, err)
				}
				part, fresh, err := c.GetFrom(ids, key, 10, 50)
				if err != nil || fresh != nil || !bytes.Equal(part, direct) {
					t.Errorf("GetFrom %v: fresh %v, %v", key, fresh, err)
				}
				if _, err := c.Get(chunk.Key{Blob: 10, Version: uint64(g + 1), Index: uint32(i)}, 0, 1); err == nil || !strings.Contains(err.Error(), "not found") {
					t.Errorf("missing get: %v, want a not-found error", err)
				}
				calls.Add(5)
			}
		}()
	}
	close(start)
	wg.Wait()
	snap := reg.Snapshot()
	if got := snap["bs_data_train_ops_sum"]; got != float64(calls.Load()) {
		t.Errorf("bs_data_train_ops_sum = %v, %d calls were made", got, calls.Load())
	}
	if trains := snap["bs_data_train_ops_count"]; trains >= float64(calls.Load()) {
		t.Errorf("%v trains for %d calls from %d callers on %d connections: none combined", trains, calls.Load(), callers, framedPoolCap)
	}
}

// TestFramedCodedRoundTrip drives the framed wire against a router in
// rs-4+2 mode: fragments place over the wire-invisible coded path, and
// the Coding RPC reports the mode to operators.
func TestFramedCodedRoundTrip(t *testing.T) {
	mgr := memPool(6, 0)
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
	c := dialClient(t, ep)

	key := chunk.Key{Blob: 5, Version: 1, Index: 0}
	data := make([]byte, bodyStep+12345)
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
	// The deprecated GetFrom reads a range as Get does: no fresh set.
	part, fresh, err := c.GetFrom(ids, key, 100, 5000)
	if err != nil || !bytes.Equal(part, data[100:5100]) {
		t.Fatalf("coded framed GetFrom: %v", err)
	}
	if fresh != nil {
		t.Fatalf("coded framed GetFrom returned a fresh set: %v", fresh)
	}
	rep, err := opsOf(c).Coding()
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

// TestFramedCodedGetsWithAZoneDown: concurrent gets of distinct coded
// chunks with one failure domain down, over a loopback server. Intact
// ones leave from the stores' slices, degraded ones from slabs the pool
// hands from read to read; a slab back in the pool before its reply had
// left, or one handed to two reads, would show here as a wrong byte.
func TestFramedCodedGetsWithAZoneDown(t *testing.T) {
	mgr := memPool(12, 6)
	r := provider.NewRouter(mgr)
	if err := r.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	node, err := Listen("127.0.0.1:0", Roles{Data: r})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	const chunks, size = 12, 300 << 10
	payloads := make([][]byte, chunks)
	rng := rand.New(rand.NewSource(8))
	for i := range payloads {
		payloads[i] = make([]byte, size)
		rng.Read(payloads[i])
		if _, err := r.Put(chunk.Key{Blob: 1, Index: uint32(i)}, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range mgr.DomainMap()["zone0"] {
		if err := mgr.SetDown(id, true); err != nil {
			t.Fatal(err)
		}
	}
	pool := newFramedPool(node.Addr())
	defer pool.close()
	var wg sync.WaitGroup
	for i := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := chunk.Key{Blob: 1, Index: uint32(i)}
			for round := range 8 {
				off := int64(round * 4099 % (size / 2))
				dst := make([]byte, size-2*off)
				if err := pool.get(dst, key, off); err != nil {
					t.Errorf("chunk %d, round %d: %v", i, round, err)
					return
				}
				if !bytes.Equal(dst, payloads[i][off:size-off]) {
					t.Errorf("chunk %d, round %d: the reply carries other bytes", i, round)
					return
				}
			}
		}()
	}
	wg.Wait()
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

// fakeFramedGets serves list gets on a loopback listener, answering
// every entry ok with sum(sizes) bytes of 0xAB instead of the bytes it
// asked for, each reply in one write; a reply shorter than its list
// asked for is followed by a hang-up. The returned channel gets one
// value per connection that ended.
func fakeFramedGets(t *testing.T, sizes []int) (addr string, closed <-chan struct{}) {
	t.Helper()
	per := 0
	for _, n := range sizes {
		per += n
	}
	return fakeListServer(t, func(_, _ int, entries []frameHeader) ([]byte, bool) {
		reply, want := []byte{statusOK}, int64(0)
		for _, e := range entries {
			reply = append(reply, statusOK)
			want += e.length
		}
		reply = append(reply, bytes.Repeat([]byte{0xAB}, per*len(entries))...)
		return reply, int64(per*len(entries)) < want
	})
}

// fakeListServer serves list gets on a loopback listener: answer makes
// the reply to the req-th list of the conn-th connection (both from 0),
// written in one write, and says whether to hang up after it. The
// returned channel gets one value per connection that ended.
func fakeListServer(t *testing.T, answer func(conn, req int, entries []frameHeader) (reply []byte, hangUp bool)) (addr string, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 8)
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() {
					conn.Close()
					select {
					case ch <- struct{}{}:
					default: // nobody counts this many
					}
				}()
				br := bufio.NewReader(conn)
				magic := make([]byte, len(framedMagic))
				if _, err := io.ReadFull(br, magic); err != nil || string(magic) != framedMagic {
					return
				}
				for req := 0; ; req++ {
					if _, err := readHeader(br); err != nil {
						return // EOF, or a reset if replies went unread
					}
					body, refused, err := readBody(br, nil, maxGetBody)
					if err != nil || refused != nil {
						return
					}
					entries, err := decodeGets(body, nil)
					if err != nil {
						t.Errorf("fake server: %v", err)
						return
					}
					reply, hangUp := answer(n, req, entries)
					if _, err := conn.Write(reply); err != nil || hangUp {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), ch
}

// guarded is a get destination of n bytes cut from the middle of a
// larger array, capacity clipped, with guard bytes either side that no
// reply, well-formed or not, may touch.
func guarded(n int) (dst []byte, intact func() bool) {
	const guard = 64
	arena := bytes.Repeat([]byte{0xEE}, guard+n+guard)
	return arena[guard : guard+n : guard+n], func() bool {
		return bytes.Count(arena[:guard], []byte{0xEE}) == guard && bytes.Count(arena[guard+n:], []byte{0xEE}) == guard
	}
}

// TestFramedGetRejectsWrongLengthReply: a reply whose payload does not
// come to the requested length — written as too few pieces, one piece
// too many, or a last piece too big — must fail the op and cost the
// connection: handed on as-is, a short fragment reads as silent zeros,
// and bytes past the reply would be read as the next one. A get reads
// exactly the bytes it asked for, so a destination is never overrun; the
// surplus is what nothing else on the connection asked for. Both forms
// of get go through one reply reader; both are held to it.
func TestFramedGetRejectsWrongLengthReply(t *testing.T) {
	key := chunk.Key{Blob: 1, Version: 2, Index: 3}
	// dial gives a client whose framed chunk pool talks to addr.
	dial := func(addr string) *Client { return &Client{pool: newFramedPool(addr)} }
	forms := map[string]func(c *Client) (n int, intact bool, err error){
		"GetFrom": func(c *Client) (int, bool, error) {
			data, _, err := c.GetFrom(nil, key, 0, 3000)
			return len(data), true, err
		},
		"GetManyInto": func(c *Client) (int, bool, error) {
			dst, intact := guarded(3000)
			err := c.GetManyInto(dst, []blob.ChunkRead{{Key: key, Length: 3000}})
			return len(dst), intact(), err
		},
	}
	for name, tc := range map[string]struct {
		frames []int
		want   string
	}{
		"one frame too few":  {[]int{1000, 1000}, "short reply"},
		"one frame too many": {[]int{1000, 1000, 1000, 1000}, "exceeds"},
		"last frame too big": {[]int{1000, 1000, 1001}, "exceeds"},
	} {
		t.Run(name, func(t *testing.T) {
			for form, get := range forms {
				t.Run(form, func(t *testing.T) {
					addr, closed := fakeFramedGets(t, tc.frames)
					c := dial(addr)
					defer c.pool.close()
					n, intact, err := get(c)
					if !intact {
						t.Fatal("the refused reply wrote outside the destination")
					}
					if err == nil {
						t.Fatalf("got %d bytes and no error for a 3000-byte read", n)
					}
					if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), key.String()) {
						t.Fatalf("error %q: want %q and the chunk key", err, tc.want)
					}
					if n := len(c.pool.idle); n != 0 {
						t.Fatalf("%d connections pooled after a desynchronised reply", n)
					}
					select {
					case <-closed:
					case <-time.After(5 * time.Second):
						t.Fatal("the client kept the connection open")
					}
				})
			}
		})
	}
	// The control: an exact reply is returned and keeps its connection.
	addr, _ := fakeFramedGets(t, []int{1000, 1000, 1000})
	c := dial(addr)
	defer c.pool.close()
	data, _, err := c.GetFrom(nil, key, 0, 3000)
	if err != nil || len(data) != 3000 || data[2999] != 0xAB {
		t.Fatalf("exact reply: %d bytes, %v", len(data), err)
	}
	dst, intact := guarded(3000)
	if err := c.GetManyInto(dst, []blob.ChunkRead{{Key: key, Length: 3000}}); err != nil || !intact() || bytes.Count(dst, []byte{0xAB}) != 3000 {
		t.Fatalf("exact reply into a buffer: %v, guards intact %v", err, intact())
	}
	if len(c.pool.idle) != 1 {
		t.Fatalf("%d connections pooled after two good replies, want 1", len(c.pool.idle))
	}
}

// TestFramedListGetRetriesAndErrors: a list get whose connection dies
// mid-payload, on a connection that had served before, is re-sent once
// on a fresh one and refills every destination from its first byte —
// an entry the dead reply failed included, the outcome being the re-sent
// list's; on a
// real node, a store error fails its read alone, the other reads of the
// list filled, and GetManyInto returns the first error in list order,
// whichever train carried it.
func TestFramedListGetRetriesAndErrors(t *testing.T) {
	const reads, size = 6, 5000
	key := func(i int) chunk.Key { return chunk.Key{Blob: 1, Version: 1, Index: uint32(i)} }
	// The first connection answers its first list, then sends the second
	// one's statuses — entry 1 failed — and half its payload, of the
	// wrong bytes, and hangs up; every other answer is whole, entry i's
	// bytes all i+1.
	var lists atomic.Int64
	addr, _ := fakeListServer(t, func(conn, req int, entries []frameHeader) ([]byte, bool) {
		lists.Add(1)
		dying := conn == 0 && req == 1
		reply, payload := []byte{statusOK}, []byte(nil)
		for i, e := range entries {
			if dying && i == 1 {
				reply = appendErrReply(reply, chunk.ErrNotFound)
				continue
			}
			reply = append(reply, statusOK)
			payload = append(payload, bytes.Repeat([]byte{byte(e.key.Index + 1)}, int(e.length))...)
		}
		if dying {
			return append(reply, bytes.Repeat([]byte{0xEE}, len(payload)/2)...), true
		}
		return append(reply, payload...), false
	})
	pool := newFramedPool(addr)
	defer pool.close()
	if err := pool.get(make([]byte, 10), key(0), 0); err != nil {
		t.Fatal(err)
	}
	dst := bytes.Repeat([]byte{0xCC}, reads*size)
	train := make([]framedCall, reads)
	for i := range train {
		train[i] = getCall(dst, i*size, size, key(i), 0)
	}
	pool.train(train)
	for i := range train {
		if err := train[i].err; err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := dst[i*size : (i+1)*size]; bytes.Count(got, []byte{byte(i + 1)}) != size {
			t.Fatalf("read %d: %d bytes other than its own", i, size-bytes.Count(got, []byte{byte(i + 1)}))
		}
	}
	if n := lists.Load(); n != 3 {
		t.Fatalf("%d lists answered, want the first read's, the train's and its one re-send", n)
	}

	_, ep := startNode(t)
	rc := dialClient(t, ep)
	const n = 8 // cut into framedPoolCap trains of two
	keys, data := make([]chunk.Key, 0, n), make([][]byte, 0, n)
	for i := range n {
		if i == 2 || i == 5 {
			continue // never stored
		}
		keys, data = append(keys, key(i)), append(data, bytes.Repeat([]byte{byte(i + 1)}, size))
	}
	if _, err := rc.PutMany(keys, data); err != nil {
		t.Fatal(err)
	}
	dst = make([]byte, n*size)
	batch := make([]blob.ChunkRead, n)
	for i := range batch {
		batch[i] = blob.ChunkRead{Key: key(i), At: int64(i * size), Length: size}
	}
	err := rc.GetManyInto(dst, batch)
	if err == nil || !errors.Is(err, chunk.ErrNotFound) || !strings.Contains(err.Error(), key(2).String()) {
		t.Fatalf("GetManyInto with reads 2 and 5 missing: %v, want read 2's not-found", err)
	}
	for i := range n {
		got, want := dst[i*size:(i+1)*size], byte(i+1)
		if i == 2 || i == 5 {
			want = 0
		}
		if bytes.Count(got, []byte{want}) != size {
			t.Fatalf("read %d: not filled as its own alone", i)
		}
	}
}

// TestFramedServerBoundsListGet speaks the raw wire protocol: what a list
// get names comes straight off the wire, so a count past the body, none
// or more than maxTrainCalls entries, an entry of another op, one whose
// must-be-0 byte is not (where the wire before BSD3 put a replica hint's
// count), a negative offset or length, a range past the largest int64
// and a list asking for more than maxTrainBytes are each refused
// in-band, the list alone — the connection aligned, a good list behind
// them answered.
func TestFramedServerBoundsListGet(t *testing.T) {
	_, ep := startNode(t)
	key := chunk.Key{Blob: 9, Version: 1}
	c := dialClient(t, ep)
	if _, err := c.Put(key, []byte("hello, list")); err != nil {
		t.Fatal(err)
	}
	// body is a list get's body of count entries, each header as given;
	// list is the request that carries it.
	body := func(count uint32, entries ...frameHeader) []byte {
		b := binary.LittleEndian.AppendUint32(nil, count)
		for _, e := range entries {
			b = appendHeader(b, &e)
		}
		return b
	}
	list := func(body []byte) []byte {
		return appendRawBody(appendHeader(nil, &frameHeader{op: opGet}), body)
	}
	get := func(off, length int64) frameHeader { return frameHeader{op: opGet, key: key, off: off, length: length} }
	many := func(n int, length int64) []frameHeader {
		entries := make([]frameHeader, n)
		for i := range entries {
			entries[i] = get(0, length)
		}
		return entries
	}
	hinted := body(1, get(0, 5))
	hinted[4+2] = 1 // one replica ID, by the old wire's reading
	conn, br := rawFramedConn(t, ep.Data)
	for _, tc := range []struct {
		name, want string
		req        []byte
	}{
		{"a count past the body", "runs past the body", list(body(3, get(0, 5)))},
		{"no entries", "list get of 0 entries", list(body(0))},
		// 33 whole entries are past the body bound; the count word alone
		// may still claim them.
		{"more than 32 entries", "list get of 33 entries", list(body(33, many(32, 1)...))},
		{"an entry with a replica hint", "entry 0 has reserved byte 1, want 0", list(hinted)},
		{"more than 1 MiB", "asks for more than 1048576 bytes", list(body(2, get(0, 600<<10), get(0, 600<<10)))},
		{"a negative length", "asks for -1 bytes", list(body(1, get(0, -1)))},
		{"a negative offset", "asks for 5 bytes at -1", list(body(1, get(-1, 5)))},
		{"a range past the largest int64", "asks for 20 bytes", list(body(1, get(math.MaxInt64-10, 20)))},
		{"another op", "is op 1", list(body(1, frameHeader{op: opPut, key: key, length: 5}))},
		{"bytes after the list", "1 bytes after a list get", list(append(body(1, get(0, 5)), 0))},
		{"a body past its bound", "exceeds the limit", appendRawBody(appendHeader(nil, &frameHeader{op: opGet}), make([]byte, maxGetBody+1))},
	} {
		conn.Write(tc.req)
		call := getCall(nil, 0, 5, key, 0)
		if err := (&framedConn{c: conn, br: br}).readGets([]*framedCall{&call}); err != nil {
			t.Fatalf("%s: %v, want an in-band refusal", tc.name, err)
		}
		if call.err == nil || !strings.Contains(call.err.Error(), tc.want) {
			t.Fatalf("%s: refused with %v, want %q", tc.name, call.err, tc.want)
		}
	}
	// 32 entries of a megabyte's worth, and one past a megabyte alone, are
	// within the bounds.
	calls := make([]framedCall, maxTrainCalls)
	for i := range calls {
		calls[i] = getCall(nil, 0, 5, key, int64(i%6))
	}
	conn.Write(rawGets(calls...))
	ptrs := make([]*framedCall, len(calls))
	for i := range calls {
		ptrs[i] = &calls[i]
	}
	if err := (&framedConn{c: conn, br: br}).readGets(ptrs); err != nil {
		t.Fatal(err)
	}
	for i, call := range calls {
		if call.err != nil || string(call.data) != "hello, list"[i%6:i%6+5] {
			t.Fatalf("entry %d of a full list after the refusals: %q, %v", i, call.data, call.err)
		}
	}
}

// writeCountingListener hands the node connections that count the Write
// calls made on them with the bytes those carried, and the ReadFrom calls
// with what they were handed. They embed the *net.TCPConn, so a
// net.Buffers write still leaves as a writev — through the promoted
// method, past Write — and a ReadFrom of a file still as a sendfile: what
// Write counts is everything that leaves neither way.
type writeCountingListener struct {
	net.Listener
	writes, bytes atomic.Int64
	readFroms     atomic.Int64 // ReadFrom calls
	sendfiles     atomic.Int64 // those handed a limited *os.File: the shape net sendfiles
}

type writeCountingConn struct {
	*net.TCPConn
	l *writeCountingListener
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &writeCountingConn{c.(*net.TCPConn), l}, nil
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.l.writes.Add(1)
	c.l.bytes.Add(int64(len(p)))
	return c.TCPConn.Write(p)
}

func (c *writeCountingConn) ReadFrom(r io.Reader) (int64, error) {
	c.l.readFroms.Add(1)
	if lr, ok := r.(*io.LimitedReader); ok {
		if _, file := lr.R.(*os.File); file {
			c.l.sendfiles.Add(1)
		}
	}
	return c.TCPConn.ReadFrom(r)
}

// A train of gets is one list get, and which way its payload leaves the
// server is chosen entry by entry by what the store's reader is. One
// that holds its bytes in memory hands its slices over, uncopied, and
// they leave with the statuses at the serve loop's one flush: no Write,
// no ReadFrom, one flush — a vectored write — for the whole train. A
// disk:// store's chunk file goes to the socket itself, one ReadFrom per
// entry, which the kernel sendfiles for a whole chunk. So does a reader
// that holds nothing in memory: a FaultStore's stream still fails where
// it was armed to, mid-payload, and takes the connection with it. A
// coded chunk (rs-4+2 over six stores of the kind) leaves in memory
// whatever its stores: intact on mem://, each data fragment is its
// store's slice; degraded, the reply is the slab it was rebuilt in; on
// disk://, the fragments read into a slab.
func TestFramedGetTrainLeavesInOneVectoredWrite(t *testing.T) {
	const size, entries = 256 << 10, 4 // a megabyte's train
	payload := make([]byte, entries*size)
	rand.New(rand.NewSource(3)).Read(payload)
	key := func(i int) chunk.Key { return chunk.Key{Blob: 1, Version: 1, Index: uint32(i)} }
	// boot serves one provider — six, coded — on stores behind a counting
	// listener, with the chunks stored; degraded flags the provider of
	// data fragment 0 down. It returns the node's registry.
	boot := func(store func() chunk.Store, coded, degraded bool) (*writeCountingListener, string, *metrics.Registry) {
		t.Helper()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		counted := &writeCountingListener{Listener: lis}
		mgr := provider.NewManager()
		router := provider.NewRouter(mgr)
		providers := 1
		if coded {
			providers = 6
			if err := router.SetCoding(4, 2); err != nil {
				t.Fatal(err)
			}
		}
		for i := range providers {
			mgr.Register(provider.NewInDomain(provider.ID(i), store(), ""))
		}
		reg := metrics.NewRegistry()
		node, err := serve(counted, Roles{Data: router, Metrics: reg})
		if err != nil {
			lis.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		ids := make([][]provider.ID, entries)
		for i := range ids {
			if ids[i], err = router.Put(key(i), payload[i*size:(i+1)*size]); err != nil {
				t.Fatal(err)
			}
		}
		if degraded {
			if err := mgr.SetDown(ids[0][0], true); err != nil {
				t.Fatal(err)
			}
		}
		return counted, node.Addr(), reg
	}
	mem := func() chunk.Store { return chunk.NewMemStore(nil) }
	disk := func() chunk.Store {
		s, err := chunk.NewDiskStore(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, c := range []struct {
		name            string
		store           func() chunk.Store
		coded, degraded bool
		off             int  // each entry reads its chunk from off to size-off
		vectored        bool // else a ReadFrom per entry
		sendfile        bool // the ReadFroms are handed the chunk file
	}{
		{name: "mem", store: mem, vectored: true},
		{name: "mem, ranges", store: mem, off: 4096, vectored: true},
		{name: "unarmed faults over mem", store: func() chunk.Store { return chunk.NewFaultStore(chunk.NewMemStore(nil)) }},
		{name: "disk, whole chunks", store: disk, sendfile: true},
		{name: "disk, ranges", store: disk, off: 4096},
		{name: "coded mem", store: mem, coded: true, vectored: true},
		{name: "coded mem, ranges", store: mem, coded: true, off: 4096, vectored: true},
		{name: "coded mem, degraded", store: mem, coded: true, degraded: true, vectored: true},
		{name: "coded disk", store: disk, coded: true, vectored: true},
	} {
		counted, addr, reg := boot(c.store, c.coded, c.degraded)
		pool := newFramedPool(addr)
		n := size - 2*c.off
		dst, intact := guarded(entries * n)
		batch := make([]framedCall, entries)
		for i := range batch {
			batch[i] = getCall(dst, i*n, int64(n), key(i), int64(c.off))
		}
		pool.train(batch)
		pool.close()
		for i := range batch {
			if err := batch[i].err; err != nil || !bytes.Equal(batch[i].data, payload[i*size+c.off:(i+1)*size-c.off]) {
				t.Fatalf("%s: get %d: %v", c.name, i, err)
			}
		}
		if !intact() {
			t.Fatalf("%s: the train wrote outside its buffer", c.name)
		}
		writes, readFroms, sendfiles := counted.writes.Load(), counted.readFroms.Load(), counted.sendfiles.Load()
		// (Counted before the flush, so once the slices arrived; an entry
		// copied to the socket arrives before it is counted.)
		if flushes := reg.Snapshot()["bs_data_flush_ops_count"]; c.vectored && flushes != 1 {
			t.Errorf("%s: the train took %v flushes, want 1", c.name, flushes)
		}
		// The statuses leave with the slices, or in a plain write ahead of
		// the first entry copied to the socket.
		wantWrites, want, wantSendfiles := int64(1), int64(entries), int64(0)
		if c.vectored {
			wantWrites, want = 0, 0
		}
		if writes != wantWrites || counted.bytes.Load() > 64 {
			t.Errorf("%s: the reply took %d Write calls carrying %d bytes beside its vectored write, want %d of a few bytes", c.name, writes, counted.bytes.Load(), wantWrites)
		}
		if c.sendfile {
			wantSendfiles = entries
		}
		if readFroms != want || sendfiles != wantSendfiles {
			t.Errorf("%s: %d ReadFrom calls, %d handed the chunk file itself, want %d and %d", c.name, readFroms, sendfiles, want, wantSendfiles)
		}
	}

	faults := chunk.NewFaultStore(chunk.NewMemStore(nil))
	_, addr, _ := boot(func() chunk.Store { return faults }, false, false)
	conn, br := rawFramedConn(t, addr)
	faults.FailGetStreamAfter(100 << 10) // inside the first entry
	conn.Write(rawGets(getCall(nil, 0, size, key(0), 0), getCall(nil, 0, size, key(1), 0)))
	got, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading up to the server's hang-up: %v", err)
	}
	const head = 1 + 2 // the list's status; each entry's
	if len(got) <= head || len(got) >= head+size {
		t.Fatalf("%d bytes of reply before the hang-up: want the statuses and part of the first entry", len(got))
	}
	if !bytes.Equal(got[head:], payload[:len(got)-head]) {
		t.Fatal("the payload that did arrive carries other bytes")
	}
}
