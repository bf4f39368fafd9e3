package remote

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// scriptedVM is a version manager that answers every call with a fixed
// result and records how it was called.
type scriptedVM struct{ got string }

func (s *scriptedVM) called(format string, args ...any) { s.got = fmt.Sprintf(format, args...) }

var (
	scriptGeometry = segtree.Geometry{Capacity: 1 << 20, Page: 4096}
	scriptTicket   = vmanager.Ticket{Version: 7, Borrows: map[extent.Extent]uint64{{Offset: 8192, Length: 4096}: 0, {Offset: 0, Length: 4096}: 3}}
	scriptSnapshot = vmanager.SnapshotInfo{Version: 6, Root: segtree.NodeKey{Version: 6, Size: 1 << 20}, Size: 12288}
	scriptGCInfo   = vmanager.GCInfo{
		Published: 6, Retained: []uint64{0, 5, 6}, Pinned: []uint64{5}, Reclaimed: 3,
		Pending: []vmanager.PendingDrop{{Version: 4, Root: segtree.NodeKey{Version: 4, Size: 1 << 20}, Size: 8192}},
	}
)

func (s *scriptedVM) CreateBlob(b uint64, g segtree.Geometry) error {
	s.called("CreateBlob(%d, %+v)", b, g)
	return nil
}

func (s *scriptedVM) Geometry(b uint64) (segtree.Geometry, error) {
	s.called("Geometry(%d)", b)
	return scriptGeometry, nil
}

func (s *scriptedVM) AssignTicket(b uint64, e extent.List) (vmanager.Ticket, error) {
	s.called("AssignTicket(%d, %v)", b, e)
	return scriptTicket, nil
}

func (s *scriptedVM) Complete(b, v uint64, root segtree.NodeKey) error {
	s.called("Complete(%d, %d, %+v)", b, v, root)
	return nil
}

func (s *scriptedVM) Abort(b, v uint64) error { s.called("Abort(%d, %d)", b, v); return nil }
func (s *scriptedVM) WaitPublished(b, v uint64) error {
	s.called("WaitPublished(%d, %d)", b, v)
	return nil
}
func (s *scriptedVM) DropVersion(b, v uint64) error {
	s.called("DropVersion(%d, %d)", b, v)
	return nil
}
func (s *scriptedVM) Pin(b, v uint64) error   { s.called("Pin(%d, %d)", b, v); return nil }
func (s *scriptedVM) Unpin(b, v uint64) error { s.called("Unpin(%d, %d)", b, v); return nil }
func (s *scriptedVM) MarkReclaimed(b, v uint64) error {
	s.called("MarkReclaimed(%d, %d)", b, v)
	return nil
}

func (s *scriptedVM) LatestPublished(b uint64) (vmanager.SnapshotInfo, error) {
	s.called("LatestPublished(%d)", b)
	return scriptSnapshot, nil
}

func (s *scriptedVM) Snapshot(b, v uint64) (vmanager.SnapshotInfo, error) {
	s.called("Snapshot(%d, %d)", b, v)
	return scriptSnapshot, nil
}

func (s *scriptedVM) Versions(b uint64) ([]uint64, error) {
	s.called("Versions(%d)", b)
	return []uint64{0, 1, 2}, nil
}

func (s *scriptedVM) Retain(b uint64, keep int) ([]uint64, error) {
	s.called("Retain(%d, %d)", b, keep)
	return []uint64{1}, nil
}

func (s *scriptedVM) GCInfo(b uint64) (vmanager.GCInfo, error) {
	s.called("GCInfo(%d)", b)
	return scriptGCInfo, nil
}

func (s *scriptedVM) Blobs() []uint64                       { return nil }
func (s *scriptedVM) ShardStatuses() []vmanager.ShardStatus { return nil }

// vmGolden is each version-manager op on the wire: the call, its result,
// what the version manager was asked, and the request and reply bytes.
var vmGolden = []struct {
	name       string
	call       func(c *Client) (any, error)
	want       any
	served     string
	req, reply string // hex
}{
	{"CreateBlob", func(c *Client) (any, error) { return nil, c.CreateBlob(9, scriptGeometry) }, nil,
		"CreateBlob(9, {Capacity:1048576 Page:4096})",
		"06000000" + "00000000" + "0900000000000000" + "0000000000000000" + "0000100000000000" + "0010000000000000",
		"00" + "00000000"},
	{"Geometry", func(c *Client) (any, error) { return c.Geometry(9) }, scriptGeometry,
		"Geometry(9)",
		"07000000" + "00000000" + "0900000000000000" + zeros3,
		"00" + "10000000" + "0000100000000000" + "0010000000000000"},
	{"AssignTicket", func(c *Client) (any, error) {
		return c.AssignTicket(9, extent.List{{Offset: 0, Length: 100}, {Offset: 8192, Length: 100}})
	}, scriptTicket,
		"AssignTicket(9, [[0,100) [8192,8292)])",
		"08000000" + "00000000" + "0900000000000000" + zeros3 +
			"24000000" + "02000000" + "0000000000000000" + "6400000000000000" + "0020000000000000" + "6400000000000000",
		"00" + "3c000000" + "0700000000000000" + "02000000" +
			"0000000000000000" + "0010000000000000" + "0300000000000000" +
			"0020000000000000" + "0010000000000000" + "0000000000000000"},
	{"Complete", func(c *Client) (any, error) {
		return nil, c.Complete(9, 7, segtree.NodeKey{Version: 7, Size: 1 << 20})
	}, nil,
		"Complete(9, 7, v7[0,1048576))",
		"09000000" + "00000000" + "0900000000000000" + "0700000000000000" + zeros2 +
			"18000000" + "0700000000000000" + "0000000000000000" + "0000100000000000",
		"00" + "00000000"},
	{"Abort", func(c *Client) (any, error) { return nil, c.Abort(9, 7) }, nil, "Abort(9, 7)",
		"0a000000" + "00000000" + "0900000000000000" + "0700000000000000" + zeros2, "00" + "00000000"},
	{"WaitPublished", func(c *Client) (any, error) { return nil, c.WaitPublished(9, 7) }, nil, "WaitPublished(9, 7)",
		"0b000000" + "00000000" + "0900000000000000" + "0700000000000000" + zeros2, "00" + "00000000"},
	{"LatestPublished", func(c *Client) (any, error) { return c.LatestPublished(9) }, scriptSnapshot,
		"LatestPublished(9)",
		"0c000000" + "00000000" + "0900000000000000" + zeros3,
		"00" + "28000000" + "0600000000000000" + "0600000000000000" + "0000000000000000" + "0000100000000000" +
			"0030000000000000"},
	{"Snapshot", func(c *Client) (any, error) { return c.Snapshot(9, 6) }, scriptSnapshot,
		"Snapshot(9, 6)",
		"0d000000" + "00000000" + "0900000000000000" + "0600000000000000" + zeros2,
		"00" + "28000000" + "0600000000000000" + "0600000000000000" + "0000000000000000" + "0000100000000000" +
			"0030000000000000"},
	{"Versions", func(c *Client) (any, error) { return c.Versions(9) }, []uint64{0, 1, 2},
		"Versions(9)",
		"0e000000" + "00000000" + "0900000000000000" + zeros3,
		"00" + "1c000000" + "03000000" + "0000000000000000" + "0100000000000000" + "0200000000000000"},
	{"Retain", func(c *Client) (any, error) { return c.Retain(9, 2) }, []uint64{1},
		"Retain(9, 2)",
		"0f000000" + "00000000" + "0900000000000000" + "0000000000000000" + "0200000000000000" + "0000000000000000",
		"00" + "0c000000" + "01000000" + "0100000000000000"},
	{"DropVersion", func(c *Client) (any, error) { return nil, c.DropVersion(9, 3) }, nil, "DropVersion(9, 3)",
		"10000000" + "00000000" + "0900000000000000" + "0300000000000000" + zeros2, "00" + "00000000"},
	{"Pin", func(c *Client) (any, error) { return nil, c.Pin(9, 5) }, nil, "Pin(9, 5)",
		"11000000" + "00000000" + "0900000000000000" + "0500000000000000" + zeros2, "00" + "00000000"},
	{"Unpin", func(c *Client) (any, error) { return nil, c.Unpin(9, 5) }, nil, "Unpin(9, 5)",
		"12000000" + "00000000" + "0900000000000000" + "0500000000000000" + zeros2, "00" + "00000000"},
	{"GCInfo", func(c *Client) (any, error) { return c.GCInfo(9) }, scriptGCInfo,
		"GCInfo(9)",
		"13000000" + "00000000" + "0900000000000000" + zeros3,
		"00" + "64000000" + "0600000000000000" + "0300000000000000" +
			"03000000" + "0000000000000000" + "0500000000000000" + "0600000000000000" +
			"01000000" + "0500000000000000" +
			"01000000" + "0400000000000000" + "0400000000000000" + "0000000000000000" + "0000100000000000" + "0020000000000000"},
	{"MarkReclaimed", func(c *Client) (any, error) { return nil, c.MarkReclaimed(9, 4) }, nil, "MarkReclaimed(9, 4)",
		"14000000" + "00000000" + "0900000000000000" + "0400000000000000" + zeros2, "00" + "00000000"},
}

// zeros2 and zeros3 are two and three zero header fields of 8 bytes.
const (
	zeros2 = "0000000000000000" + "0000000000000000"
	zeros3 = "0000000000000000" + zeros2
)

// TestVMOpsGolden pins each version-manager op's bytes from both ends: the
// client sends exactly the golden request and decodes the golden reply
// into the call's result, and the server, handed the golden request,
// asks its version manager exactly that and answers exactly the golden
// reply.
func TestVMOpsGolden(t *testing.T) {
	if len(vmGolden) != opMarkReclaimed-opCreateBlob+1 {
		t.Fatalf("%d golden ops for %d op codes", len(vmGolden), opMarkReclaimed-opCreateBlob+1)
	}
	for _, tc := range vmGolden {
		t.Run(tc.name, func(t *testing.T) {
			req, _ := hex.DecodeString(tc.req)
			reply, _ := hex.DecodeString(tc.reply)

			c := &Client{vm: newFramedPool(""), waits: newWaitPool("")}
			p := c.vm
			if tc.name == "WaitPublished" {
				p = c.waits
			}
			sent := pipedPeer(t, p, reply)
			got, err := tc.call(c)
			if err != nil {
				t.Fatal(err)
			}
			if wire := <-sent; !bytes.Equal(wire, req) {
				t.Errorf("request\n got %x\nwant %x", wire, req)
			}
			if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("result %+v, want %+v", got, tc.want)
			}

			vm := &scriptedVM{}
			if answer := serveRaw(t, newFramedServer(Roles{VM: vm}), req); !bytes.Equal(answer, reply) {
				t.Errorf("reply\n got %x\nwant %x", answer, reply)
			}
			if vm.got != tc.served {
				t.Errorf("served %s, want %s", vm.got, tc.served)
			}
		})
	}
}

// serveRaw runs the server loop on one loopback connection that carries
// the given request bytes and then half-closes, and returns everything
// the server answered before it saw the end of its input.
func serveRaw(t *testing.T, fs *framedServer, req []byte) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if conn, err := ln.Accept(); err == nil {
			fs.serve(conn, bufio.NewReader(conn))
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	answered, _ := io.ReadAll(conn)
	return answered
}

// TestVMCodecsRefuseHostileBodies: a request or reply body that claims
// more than it holds, or extents out of range, is refused in-band by the
// server and as an error by the client — never a panic, and the
// connection serves on.
func TestVMCodecsRefuseHostileBodies(t *testing.T) {
	vm := &scriptedVM{}
	ticket := func(body []byte) []byte {
		return appendRawBody(appendHeader(nil, &frameHeader{op: opAssignTicket, key: chunk.Key{Blob: 9}}), body)
	}
	for name, body := range map[string][]byte{
		"count past the body": {0xff, 0xff, 0xff, 0x0f, 1, 2, 3},
		"negative offset":     append([]byte{1, 0, 0, 0}, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0),
		"overflowing extent":  append([]byte{1, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 2, 0, 0, 0, 0, 0, 0, 0),
		"trailing bytes":      {0, 0, 0, 0, 9},
	} {
		reply := serveRaw(t, newFramedServer(Roles{VM: vm}), append(ticket(body), ticket(vmanager.AppendExtents(nil, extent.List{{Length: 1}}))...))
		if len(reply) == 0 || reply[0] != statusErr {
			t.Errorf("%s: reply %x, want an error", name, reply)
		} else if vm.got != "AssignTicket(9, [[0,1)])" {
			t.Errorf("%s: the next request on the connection was not served (%q)", name, vm.got)
		}
		vm.got = ""
	}
	for _, reply := range []string{
		"00" + "08000000" + "0700000000000000" + "00000000",              // ticket without its count
		"00" + "0c000000" + "0700000000000000" + "05000000" + "00000000", // borrows past the body
	} {
		b, _ := hex.DecodeString(reply)
		if _, err := pipedClient(t, b).AssignTicket(9, extent.List{{Length: 1}}); err == nil {
			t.Errorf("reply %s decoded", reply)
		}
	}
	b, _ := hex.DecodeString("00" + "18000000" + "0100000000000000" + "0000000000000000" + "09000000" + "00000000" + "00000000")
	if _, err := pipedClient(t, b).GCInfo(9); err == nil {
		t.Error("a GC info whose retained list runs past the body decoded")
	}
}

// TestVMErrorsKeepTheirSentinels: an error the version manager or a chunk
// store returns reaches a remote caller still satisfying errors.Is, with
// its message intact — what blob's GC walk and the shard torture test
// tell errors apart by.
func TestVMErrorsKeepTheirSentinels(t *testing.T) {
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
	c := dialClient(t, Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()})
	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.Write(0, []byte("versions"), blob.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DropVersion(1, 1); err != nil {
		t.Fatal(err)
	}
	_, dropped := c.Snapshot(1, 1)
	_, unknown := c.AssignTicket(42, extent.List{{Length: 1}})
	key := chunk.Key{Blob: 7}
	if _, err := c.Put(key, []byte("once")); err != nil {
		t.Fatal(err)
	}
	_, twice := c.Put(key, []byte("once"))
	for _, tc := range []struct {
		err, want error
		text      string
	}{
		{dropped, vmanager.ErrVersionDropped, "vmanager: version dropped: 1"},
		{unknown, vmanager.ErrUnknownBlob, "vmanager: unknown blob: 42"},
		{twice, chunk.ErrExists, "chunk: already exists: " + key.String()},
	} {
		if !errors.Is(tc.err, tc.want) || !bytes.Contains([]byte(fmt.Sprint(tc.err)), []byte(tc.text)) {
			t.Errorf("%v: want errors.Is %v and the text %q", tc.err, tc.want, tc.text)
		}
	}
}

// TestWaitsDoNotHoldPoolConnections: twice as many waits as a pool has
// connections park on one client, and the Completes that release them,
// issued from the same client afterwards, still get through.
func TestWaitsDoNotHoldPoolConnections(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	if err := c.CreateBlob(1, segtree.Geometry{Capacity: 1 << 16, Page: 512}); err != nil {
		t.Fatal(err)
	}
	const waits = 2 * framedPoolCap
	tickets := make([]vmanager.Ticket, waits)
	for i := range tickets {
		var err error
		if tickets[i], err = c.AssignTicket(1, extent.List{{Offset: int64(i) * 512, Length: 512}}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, waits)
	for _, tk := range tickets {
		go func(v uint64) { done <- c.WaitPublished(1, v) }(tk.Version)
	}
	waitFor(t, "every wait to park", func() bool { open, _, _ := poolCounts(c.waits); return open == waits })
	for i := len(tickets) - 1; i >= 0; i-- { // the last first: nothing publishes before the end
		if err := c.Complete(1, tickets[i].Version, segtree.NodeKey{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < waits; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a wait never returned")
		}
	}
	if open, idle, _ := poolCounts(c.vm); open > framedPoolCap || idle != open {
		t.Errorf("the version manager's pool holds %d connections, %d idle", open, idle)
	}
}

// TestCloseInterruptsParkedWait: Close ends every parked wait with
// ErrClientClosed at once and leaves no goroutine behind.
func TestCloseInterruptsParkedWait(t *testing.T) {
	_, ep := startNode(t)
	c, err := DialFramed(ep)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBlob(1, segtree.Geometry{Capacity: 1 << 16, Page: 512}); err != nil {
		t.Fatal(err)
	}
	tk, err := c.AssignTicket(1, extent.List{{Length: 512}})
	if err != nil {
		t.Fatal(err)
	}
	other := dialClient(t, ep) // releases the server's side of the waits at the end
	before := runtime.NumGoroutine()
	const waits = 3
	var wg sync.WaitGroup
	errs := make(chan error, waits)
	for i := 0; i < waits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- c.WaitPublished(1, tk.Version)
		}()
	}
	waitFor(t, "the waits to park", func() bool { open, _, _ := poolCounts(c.waits); return open == waits })
	c.Close()
	wg.Wait()
	for i := 0; i < waits; i++ {
		if err := <-errs; !errors.Is(err, ErrClientClosed) {
			t.Errorf("a wait parked at Close: %v, want ErrClientClosed", err)
		}
	}
	if err := c.WaitPublished(1, tk.Version); !errors.Is(err, ErrClientClosed) {
		t.Errorf("a wait after Close: %v", err)
	}
	// The server still parks a goroutine per wait until the version
	// publishes; once it has, every goroutine the waits started is gone.
	if err := other.Abort(1, tk.Version); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the goroutines to end", func() bool { return runtime.NumGoroutine() <= before })
}

// TestGetFromAllocatesOnlyOnOK: GetFrom sizes its buffer once the server
// has answered ok, so a miss or an error allocates nothing for the
// payload, whatever length was asked for.
func TestGetFromAllocatesOnlyOnOK(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	metaOnly, err := Listen("127.0.0.1:0", Roles{Meta: metadata.NewStore(2, iosim.CostModel{})})
	if err != nil {
		t.Fatal(err)
	}
	defer metaOnly.Close()
	noData := dialClient(t, Endpoints{VM: ep.VM, Meta: ep.Meta, Data: metaOnly.Addr()})
	const length = 64 << 20
	for name, get := range map[string]func() error{
		"a miss":   func() error { _, _, err := c.GetFrom(nil, chunk.Key{Blob: 404}, 0, length); return err },
		"an error": func() error { _, _, err := noData.GetFrom(nil, chunk.Key{Blob: 1}, 0, length); return err },
	} {
		get() // warm the connection
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			if get() == nil {
				t.Fatalf("%s succeeded", name)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > length/4 {
			t.Errorf("%s allocated %d bytes over 4 gets of %d", name, grew, length)
		}
	}
}
