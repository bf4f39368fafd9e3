package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// TestFramedChunkRoundTrip drives Put/Get/GetFrom over the framed wire
// against a live node and checks payload fidelity for both a
// sub-frame-sized chunk and one spanning several frames.
func TestFramedChunkRoundTrip(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)

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
	c := dialClient(t, ep)

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
	mgr, _ := provider.NewPool(1, iosim.CostModel{})
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

// TestFramedServerRejectsOversizedPut speaks the raw wire protocol and
// forges a put header declaring a 2 GiB payload: the server must answer
// with the typed size-bound error — BEFORE the router sees the request,
// and without desyncing the connection.
func TestFramedServerRejectsOversizedPut(t *testing.T) {
	_, ep := startNode(t)
	conn, br := rawFramedConn(t, ep.Data)
	key := chunk.Key{Blob: 42}

	if _, err := conn.Write(rawPut(key, 1<<31)); err != nil {
		t.Fatal(err)
	}
	if _, msg := readPutReply(t, br); !strings.Contains(msg, "max chunk size") {
		t.Fatalf("oversized put error = %q, want the size-bound error", msg)
	}

	// The rejection drained the body: the same connection still serves
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
// whose body carries the given frames.
func rawPut(key chunk.Key, length int64, frames ...[]byte) []byte {
	return appendRawBody(appendHeader(nil, &frameHeader{op: opPut, key: key, length: length}), frames)
}

// appendRawBody appends a body of the given frames and its terminator.
func appendRawBody(req []byte, frames [][]byte) []byte {
	for _, f := range frames {
		req = binary.LittleEndian.AppendUint32(req, uint32(len(f)))
		req = append(req, f...)
	}
	return binary.LittleEndian.AppendUint32(req, 0)
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

// TestFramedServerRejectsOverlongPut: a body carrying more payload than
// its header declared used to be acknowledged — the store took the
// declared bytes, the rest was discarded in silence and the reply said
// ok. It must be an error, leave the connection aligned, and inside a
// train of pipelined puts fail alone.
func TestFramedServerRejectsOverlongPut(t *testing.T) {
	_, ep := startNode(t)
	conn, br := rawFramedConn(t, ep.Data)
	key := func(i uint32) chunk.Key { return chunk.Key{Blob: 42, Version: 1, Index: i} }
	extra := bytes.Repeat([]byte{0xEE}, 100)

	// Alone: 5 + 100 bytes under a header declaring 5.
	if _, err := conn.Write(rawPut(key(0), 5, []byte("hello"), extra)); err != nil {
		t.Fatal(err)
	}
	if _, msg := readPutReply(t, br); !strings.Contains(msg, "100 bytes beyond the 5 declared") {
		t.Fatalf("overlong put answered %q, want the overrun error", msg)
	}
	// Within one frame too: a single 105-byte frame under the same header.
	if _, err := conn.Write(rawPut(key(1), 5, append([]byte("hello"), extra...))); err != nil {
		t.Fatal(err)
	}
	if _, msg := readPutReply(t, br); !strings.Contains(msg, "100 bytes beyond the 5 declared") {
		t.Fatalf("overlong single-frame put answered %q, want the overrun error", msg)
	}

	// In a train, written in one go: good, overlong, good.
	train := rawPut(key(2), 5, []byte("first"))
	train = append(train, rawPut(key(3), 5, []byte("hello"), extra)...)
	train = append(train, rawPut(key(4), 5, []byte("third"))...)
	if _, err := conn.Write(train); err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{false, true, false} {
		ids, msg := readPutReply(t, br)
		if wantErr != (msg != "") || wantErr == (len(ids) > 0) {
			t.Fatalf("train put %d: ids %v, error %q", i, ids, msg)
		}
	}
}

// rawNodeOp is the wire form of a node op; frames are the body of a put.
func rawNodeOp(op byte, blob uint64, key segtree.NodeKey, frames ...[]byte) []byte {
	req := appendHeader(nil, &frameHeader{op: op, key: chunk.Key{Blob: blob, Version: key.Version}, off: key.Offset, length: key.Size})
	if op != opNodePut {
		return req
	}
	return appendRawBody(req, frames)
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
// bound, a body that is no node, an aborted body and a different node
// under a stored key are each refused in-band, alone — their train-mates
// answered, the connection aligned, nothing stored — and the two kinds
// of miss are told apart.
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

	// One frame more than the bound holds.
	huge := make([][]byte, maxNodeBody/maxFrame+1)
	for i := range huge {
		huge[i] = make([]byte, maxFrame)
	}
	conn.Write(rawNodeOp(opNodePut, 1, key(0), huge...))
	expect("an oversized node put", opNodePut, "body exceeds the limit of 4194304 bytes")
	// Exactly the bound is read whole, and refused only for not being a node.
	conn.Write(rawNodeOp(opNodePut, 1, key(0), huge[:len(huge)-1]...))
	expect("a bound-sized body of zeros", opNodePut, "inner node of "+itoa(maxNodeBody)+" bytes")

	aborted := appendHeader(nil, &frameHeader{op: opNodePut, key: chunk.Key{Blob: 1, Version: 1}, length: 512})
	aborted = binary.LittleEndian.AppendUint32(aborted, 10)
	aborted = append(aborted, good(0)[:10]...)
	aborted = binary.LittleEndian.AppendUint32(aborted, frameAbort)

	// One write, seven requests: the refusals fail alone.
	var train []byte
	train = append(train, rawNodeOp(opNodePut, 1, key(1), good(1))...)
	train = append(train, rawNodeOp(opNodePut, 1, key(2), []byte("not a node"))...)
	train = append(train, aborted...)
	train = append(train, rawNodeOp(opNodePut, 1, key(1), good(9))...)                    // key(1) holds another node
	train = append(train, rawNodeOp(opNodePut, 1, key(1), good(1)[:40], good(1)[40:])...) // the same node, in two frames
	train = append(train, rawNodeOp(opNodePut, 1, key(3))...)                             // no body at all
	train = append(train, rawNodeOp(opNodePut, 1, key(4), good(4))...)
	conn.Write(train)
	for i, wantErr := range []string{"", "unknown node kind 110", errAborted.Error(), metadata.ErrExists.Error(), "", "empty node encoding", ""} {
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
		gets = append(gets, rawNodeOp(g.op, 1, g.key)...)
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
	for _, op := range []byte{0, opMarkReclaimed + 1} {
		conn, br := rawFramedConn(t, ep.Meta)
		conn.Write(appendHeader(nil, &frameHeader{op: op}))
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("after op %d: %v, want the connection closed", op, err)
		}
	}
}

// TestFramedServerRefusesOpsOfAMissingRole: a node is told apart by what
// it was started with. A meta-only node refuses a chunk op and a
// data-only node a node op — in-band, a put's body drained — and the
// connection goes on serving the ops of the role the node does host.
func TestFramedServerRefusesOpsOfAMissingRole(t *testing.T) {
	metaNode, err := Listen("127.0.0.1:0", Roles{Meta: metadata.NewStore(2, iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer metaNode.Close()
	mgr, _ := provider.NewPool(2, iosim.CostModel{})
	dataNode, err := Listen("127.0.0.1:0", Roles{Data: provider.NewRouter(mgr)})
	if err != nil {
		t.Fatal(err)
	}
	defer dataNode.Close()
	ckey, nkey := chunk.Key{Blob: 1, Version: 1}, segtree.NodeKey{Version: 1, Size: 512}
	enc := segtree.AppendNode(nil, leafNode(1))

	conn, br := rawFramedConn(t, metaNode.Addr())
	req := rawPut(ckey, 5, []byte("hello"))
	req = append(req, appendHeader(nil, &frameHeader{op: opGet, key: ckey, length: 5})...)
	req = append(req, rawNodeOp(opNodePut, 1, nkey, enc)...)
	conn.Write(req)
	if _, msg := readPutReply(t, br); msg != errNoDataRole.Error() {
		t.Fatalf("chunk put on a meta-only node: %q", msg)
	}
	get := &framedCall{h: frameHeader{op: opGet, key: ckey, length: 5}}
	if err := (&framedConn{br: br}).readReply(get); err != nil || get.err == nil || get.err.Error() != errNoDataRole.Error() {
		t.Fatalf("chunk get on a meta-only node: %v, %v", err, get.err)
	}
	if _, _, msg := readNodeReply(t, br, opNodePut); msg != "" {
		t.Fatalf("node put after the refusals, same connection: %q", msg)
	}

	conn, br = rawFramedConn(t, dataNode.Addr())
	req = rawNodeOp(opNodePut, 1, nkey, enc)
	req = append(req, rawNodeOp(opNodeGet, 1, nkey)...)
	req = append(req, rawNodeOp(opNodeTryGet, 1, nkey)...)
	req = append(req, rawPut(ckey, 5, []byte("hello"))...)
	conn.Write(req)
	for _, op := range []byte{opNodePut, opNodeGet, opNodeTryGet} {
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
// arriving (the flush rule), and requests written back to back are
// answered in order.
func TestFramedServerAnswersLoneAndPipelinedRequests(t *testing.T) {
	_, ep := startNode(t)
	conn, br := rawFramedConn(t, ep.Data)
	payload := func(i uint32) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 3000+int(i)) }
	key := func(i uint32) chunk.Key { return chunk.Key{Blob: 7, Version: 1, Index: i} }
	rawGet := func(i uint32) []byte {
		return appendHeader(nil, &frameHeader{op: opGet, key: key(i), length: int64(len(payload(i)))})
	}
	readGet := func(i uint32) {
		t.Helper()
		want := payload(i)
		c := &framedCall{h: frameHeader{op: opGet, key: key(i), length: int64(len(want))}, data: make([]byte, len(want))}
		if err := (&framedConn{c: conn, br: br}).readReply(c); err != nil || c.err != nil {
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
	miss := &framedCall{h: frameHeader{op: opGet, key: key(99), length: 1}, data: make([]byte, 1)}
	if err := (&framedConn{c: conn, br: br}).readReply(miss); err != nil || miss.err == nil || !strings.Contains(miss.err.Error(), "not found") {
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
	mgr, _ := provider.NewPool(3, iosim.CostModel{})
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
					t.Errorf("hinted get %v: fresh %v, %v", key, fresh, err)
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
	c := dialClient(t, ep)

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

// TestFramedGetRejectsWrongLengthReply: a reply whose frames do not sum
// to the requested length — one frame too few, one too many — must fail
// the op and cost the connection: handed on as-is, a short fragment
// reads as silent zeros and a long one grows without bound — or, read
// into the caller's buffer, runs over whatever lies behind it. Both
// forms of get go through one reply reader; both are held to it.
func TestFramedGetRejectsWrongLengthReply(t *testing.T) {
	key := chunk.Key{Blob: 1, Version: 2, Index: 3}
	// dial gives a client whose framed chunk pool talks to addr.
	dial := func(addr string) *Client { return &Client{pool: newFramedPool(addr)} }
	forms := map[string]func(c *Client) (n int, intact bool, err error){
		"GetFrom": func(c *Client) (int, bool, error) {
			data, _, err := c.GetFrom(nil, key, 0, 3000)
			return len(data), true, err
		},
		"GetInto": func(c *Client) (int, bool, error) {
			dst, intact := guarded(3000)
			_, err := c.GetInto(dst, nil, key, 0)
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
	if _, err := c.GetInto(dst, nil, key, 0); err != nil || !intact() || bytes.Count(dst, []byte{0xAB}) != 3000 {
		t.Fatalf("exact reply into a buffer: %v, guards intact %v", err, intact())
	}
	if len(c.pool.idle) != 1 {
		t.Fatalf("%d connections pooled after two good replies, want 1", len(c.pool.idle))
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

// Which way a get whose frames do not fit the write buffer leaves the
// server is chosen by what the store's reader is. One that holds its
// bytes in memory writes itself: the status and fresh set flushed, every
// frame word and every frame in one vectored write of the stored slice,
// the terminator with the serve loop's flush — where each frame used to
// cost a flush of its word and a copy of its payload through a 32 KiB
// buffer. A disk:// store's chunk file is its own writer too, but keeps
// the loop, a frame word and a sendfile per frame: written to anything
// but the socket itself it would be read into a buffer first. So does a
// reader that is not its own writer: a FaultStore's stream still fails
// where it was armed to, mid-frame, and takes the connection with it.
func TestFramedGetLeavesMemoryInOneVectoredWrite(t *testing.T) {
	const size = 1 << 20 // four frames
	const frames = size / maxFrame
	key := chunk.Key{Blob: 1, Version: 1}
	payload := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(payload)
	// boot serves one provider on store behind a counting listener, with
	// the chunk stored.
	boot := func(store chunk.Store) (*writeCountingListener, string) {
		t.Helper()
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		counted := &writeCountingListener{Listener: lis}
		mgr := provider.NewManager()
		mgr.Register(provider.New(0, store))
		router := provider.NewRouter(mgr)
		node, err := serve(counted, Roles{Data: router})
		if err != nil {
			lis.Close()
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		if _, err := router.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		return counted, node.Addr()
	}
	disk := func() chunk.Store {
		s, err := chunk.NewDiskStore(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, c := range []struct {
		name     string
		store    chunk.Store
		off, n   int
		vectored bool // else the loop: a Write and a ReadFrom per frame
		sendfile bool // the loop's ReadFroms are handed the chunk file
	}{
		{name: "mem", store: chunk.NewMemStore(nil), n: size, vectored: true},
		{name: "mem, a range", store: chunk.NewMemStore(nil), off: 4096, n: size - 8192, vectored: true},
		{name: "unarmed faults over mem", store: chunk.NewFaultStore(chunk.NewMemStore(nil)), n: size},
		{name: "disk, the whole chunk", store: disk(), n: size, sendfile: true},
		{name: "disk, a range", store: disk(), off: 4096, n: size - 8192},
	} {
		counted, addr := boot(c.store)
		pool := newFramedPool(addr)
		dst, intact := guarded(c.n)
		_, err := pool.get(dst, nil, key, int64(c.off))
		pool.close()
		if err != nil || !bytes.Equal(dst, payload[c.off:c.off+c.n]) || !intact() {
			t.Fatalf("%s: get: %v, guards intact %v", c.name, err, intact())
		}
		writes, carried := counted.writes.Load(), counted.bytes.Load()
		readFroms, sendfiles := counted.readFroms.Load(), counted.sendfiles.Load()
		if c.vectored {
			// Status, count and one fresh ID; then, uncounted, the writev;
			// then the terminator.
			if writes > 2 || carried > 16 || readFroms != 0 {
				t.Errorf("%s: the reply took %d Write calls carrying %d bytes and %d ReadFrom calls beside its vectored write, want 2 of a few bytes and none",
					c.name, writes, carried, readFroms)
			}
			continue
		}
		// A frame word a frame (the first behind the status), each followed
		// by its payload handed to the connection, and the terminator.
		if writes != frames+1 || carried > 16+4*frames || readFroms != frames {
			t.Errorf("%s: the reply took %d Write calls carrying %d bytes and %d ReadFrom calls, want the loop's %d of a few bytes and %d",
				c.name, writes, carried, readFroms, frames+1, frames)
		}
		if want := map[bool]int64{true: frames}[c.sendfile]; sendfiles != want {
			t.Errorf("%s: %d of the payload ReadFroms were handed the chunk file itself, want %d", c.name, sendfiles, want)
		}
	}

	faults := chunk.NewFaultStore(chunk.NewMemStore(nil))
	_, addr := boot(faults)
	conn, br := rawFramedConn(t, addr)
	faults.FailGetStreamAfter(300 << 10) // inside the second frame
	conn.Write(appendHeader(nil, &frameHeader{op: opGet, key: key, length: size}))
	got, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading up to the server's hang-up: %v", err)
	}
	const head = 2 + 4 // status, count, one fresh ID
	if len(got) <= head+4+maxFrame+4 || len(got) >= head+size {
		t.Fatalf("%d bytes of reply before the hang-up: want the first frame and part of the second", len(got))
	}
	if !bytes.Equal(got[head+4:head+4+maxFrame], payload[:maxFrame]) {
		t.Fatal("the frame that did arrive carries other bytes")
	}
}
