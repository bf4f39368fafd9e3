// Package remote exposes the storage services over TCP, so the
// BlobSeer-equivalent service can run as real distributed processes
// (cmd/blobseerd) while clients use the same blob.Services interfaces
// as the in-process wiring. One port carries two protocols, told apart
// per connection by its first bytes: the framed plane (framed.go) — the
// version manager's calls, chunk payloads and segment-tree nodes — and
// the operator surface, HTTP with JSON replies (admin.go). One server
// process can host any subset of the three roles: version manager,
// metadata provider, data provider.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// VMBackend is what a version-manager node serves: the client-facing
// VersionService plus the blob catalog the reaper walks and the
// shard-status report — a *vmanager.Manager or, its clients none the
// wiser, a *vmanager.Sharded.
type VMBackend interface {
	blob.VersionService
	Blobs() []uint64
	ShardStatuses() []vmanager.ShardStatus
}

var (
	_ VMBackend = (*vmanager.Manager)(nil)
	_ VMBackend = (*vmanager.Sharded)(nil)
)

// --- Node (server process) ---

// Roles selects which services a node hosts. Health and Healer ride
// along with the data role when the node self-heals, Reaper when it
// collects garbage.
type Roles struct {
	VM     VMBackend
	Meta   *metadata.Store
	Data   *provider.Router
	Health *provider.HealthMonitor
	Healer *core.Healer
	Reaper *core.Reaper

	// Metrics, when non-nil, is served at GET /metrics (Prometheus
	// exposition, bsctl metrics), and every version-manager and operator
	// call is counted into bs_rpc_requests_total{method="..."}.
	Metrics *metrics.Registry
}

// Node is one running storage-service process.
type Node struct {
	lis   net.Listener
	fr    *framedServer
	admin *http.Server
	plain *connListener // where the accept loop hands the connections that are not framed

	// conns tracks framed connections so Close ends them (the HTTP server
	// ends its own): a closed Node behaves like a dead process.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// Listen starts serving the given roles on addr (e.g. "127.0.0.1:0").
func Listen(addr string, roles Roles) (*Node, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: listen %s: %w", addr, err)
	}
	n, err := serve(lis, roles)
	if err != nil {
		lis.Close()
		return nil, err
	}
	return n, nil
}

// serve starts serving the given roles on an open listener, which the
// returned node owns (tests pass one that counts accepted connections).
func serve(lis net.Listener, roles Roles) (*Node, error) {
	if roles.VM == nil && roles.Meta == nil && roles.Data == nil {
		return nil, errors.New("remote: node must host at least one role")
	}
	n := &Node{lis: lis, fr: newFramedServer(roles), admin: &http.Server{Handler: newAdminMux(roles)}, conns: make(map[net.Conn]struct{})}
	n.plain = &connListener{Listener: lis, conns: make(chan net.Conn), done: make(chan struct{})}
	go n.admin.Serve(n.plain)
	go n.acceptLoop()
	return n, nil
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.lis.Accept()
		if err != nil {
			return // listener closed
		}
		go n.handleConn(conn)
	}
}

// handleConn negotiates the connection's protocol by peeking its first
// bytes: the framed plane announces itself with a 4-byte magic,
// everything else goes to the HTTP server. The peek happens off the
// accept loop because it blocks until the client's first write.
func (n *Node) handleConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	head, err := br.Peek(len(framedMagic))
	if err != nil {
		conn.Close()
		return
	}
	if string(head) != framedMagic {
		// The peeked bytes stay in br, so the HTTP server reads through it.
		n.plain.hand(&bufferedConn{Conn: conn, r: br})
		return
	}
	n.connMu.Lock()
	if n.closed {
		n.connMu.Unlock()
		conn.Close()
		return
	}
	n.conns[conn] = struct{}{}
	n.connMu.Unlock()
	defer func() {
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
	}()
	br.Discard(len(framedMagic))
	n.fr.serve(conn, br)
}

// bufferedConn splices a peeked bufio.Reader back onto its connection.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (b *bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.lis.Addr().String() }

// Close stops the node: the listener stops accepting and every served
// connection is torn down, so a closed Node is indistinguishable from
// a killed process to its clients.
func (n *Node) Close() error {
	err := n.lis.Close()
	n.admin.Close()
	n.connMu.Lock()
	defer n.connMu.Unlock()
	n.closed = true
	for c := range n.conns {
		c.Close()
	}
	return err
}

// --- Client ---

// Client talks to remote service nodes and implements the client-side
// service interfaces (blob.VersionService, segtree.NodeStore,
// blob.DataService) on the framed plane, a pool per endpoint: vm, pool
// (chunks, data) and nodes (meta); WaitPublished rides waits.
type Client struct {
	vm, waits, pool, nodes *framedPool
	data                   string // the data endpoint, for SetProviderDown
}

// Endpoints names the service addresses a client needs. Any subset may
// point at the same node.
type Endpoints struct {
	VM   string
	Meta string
	Data string
}

// DialFramed connects to the service nodes. Only the version manager is
// dialed here, so a wrong address fails now; every other connection is
// dialed on first use.
func DialFramed(ep Endpoints) (*Client, error) {
	c := &Client{vm: newFramedPool(ep.VM), waits: newWaitPool(ep.VM), pool: newFramedPool(ep.Data), nodes: newFramedPool(ep.Meta), data: ep.Data}
	fc, err := c.vm.dial()
	if err != nil {
		return nil, err
	}
	c.vm.idle, c.vm.open = []*framedConn{fc}, 1
	return c, nil
}

// SetMetrics registers the chunk and node pools' series in reg, before
// their first call: bs_data_dials_total, the connections dialed (flat in
// steady state), and bs_data_train_ops, the requests per round trip.
func (c *Client) SetMetrics(reg *metrics.Registry) {
	for _, p := range []*framedPool{c.pool, c.nodes} {
		p.dials = reg.Counter("bs_data_dials_total")
		p.trainOps = reg.Histogram("bs_data_train_ops", trainBuckets())
	}
}

// Close ends every connection: idle and parked-wait ones at once, one
// with a train on it once the train is answered. Calls started after
// Close, queued, or parked in a wait fail with ErrClientClosed.
func (c *Client) Close() error {
	for _, p := range []*framedPool{c.vm, c.waits, c.pool, c.nodes} {
		p.close()
	}
	return nil
}

// Services assembles the blob.Services facade over this client.
func (c *Client) Services() blob.Services {
	return blob.Services{VM: c, Meta: c, Data: c}
}

var (
	_ blob.VersionService = (*Client)(nil)
	_ segtree.NodeStore   = (*Client)(nil)
	_ blob.DataService    = (*Client)(nil)
)

// vmOp makes one version-manager call and returns its reply body.
func (c *Client) vmOp(op byte, blobID, v uint64, off, length int64, body []byte) ([]byte, error) {
	p := c.vm
	if op == opWaitPublished {
		p = c.waits
	}
	r := p.one(vmCall(op, blobID, v, off, length, body))
	return r.data, r.err
}

// vmDone makes a version-manager call that returns nothing but its error.
func (c *Client) vmDone(op byte, blobID, v uint64) error {
	_, err := c.vmOp(op, blobID, v, 0, 0, nil)
	return err
}

// vmResult makes a version-manager call whose reply body decode reads.
func vmResult[T any](c *Client, op byte, blobID, v uint64, off int64, body []byte, decode func([]byte) (T, error)) (T, error) {
	reply, err := c.vmOp(op, blobID, v, off, 0, body)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(reply)
}

// The blob.VersionService methods, one framed op each.

func (c *Client) CreateBlob(blobID uint64, geo segtree.Geometry) error {
	_, err := c.vmOp(opCreateBlob, blobID, 0, geo.Capacity, geo.Page, nil)
	return err
}

func (c *Client) Complete(blobID, v uint64, root segtree.NodeKey) error {
	_, err := c.vmOp(opComplete, blobID, v, 0, 0, vmanager.AppendNodeKey(nil, root))
	return err
}

func (c *Client) Abort(blobID, v uint64) error         { return c.vmDone(opAbort, blobID, v) }
func (c *Client) WaitPublished(blobID, v uint64) error { return c.vmDone(opWaitPublished, blobID, v) }
func (c *Client) DropVersion(blobID, v uint64) error   { return c.vmDone(opDropVersion, blobID, v) }
func (c *Client) Pin(blobID, v uint64) error           { return c.vmDone(opPin, blobID, v) }
func (c *Client) Unpin(blobID, v uint64) error         { return c.vmDone(opUnpin, blobID, v) }
func (c *Client) MarkReclaimed(blobID, v uint64) error { return c.vmDone(opMarkReclaimed, blobID, v) }

func (c *Client) Geometry(blobID uint64) (segtree.Geometry, error) {
	return vmResult(c, opGeometry, blobID, 0, 0, nil, vmanager.DecodeGeometry)
}

func (c *Client) AssignTicket(blobID uint64, e extent.List) (vmanager.Ticket, error) {
	return vmResult(c, opAssignTicket, blobID, 0, 0, vmanager.AppendExtents(nil, e), vmanager.DecodeTicket)
}

func (c *Client) LatestPublished(blobID uint64) (vmanager.SnapshotInfo, error) {
	return vmResult(c, opLatestPublished, blobID, 0, 0, nil, vmanager.DecodeSnapshotInfo)
}

func (c *Client) Snapshot(blobID, v uint64) (vmanager.SnapshotInfo, error) {
	return vmResult(c, opSnapshot, blobID, v, 0, nil, vmanager.DecodeSnapshotInfo)
}

func (c *Client) Versions(blobID uint64) ([]uint64, error) {
	return vmResult(c, opVersions, blobID, 0, 0, nil, vmanager.DecodeVersions)
}

func (c *Client) Retain(blobID uint64, keepLast int) ([]uint64, error) {
	return vmResult(c, opRetain, blobID, 0, int64(keepLast), nil, vmanager.DecodeVersions)
}

func (c *Client) GCInfo(blobID uint64) (vmanager.GCInfo, error) {
	return vmResult(c, opGCInfo, blobID, 0, 0, nil, vmanager.DecodeGCInfo)
}

// PutNode implements segtree.NodeStore over the framed plane.
func (c *Client) PutNode(blobID uint64, key segtree.NodeKey, n *segtree.Node) error {
	return c.nodes.one(nodeCall(opNodePut, blobID, key, segtree.AppendNode(nil, n))).err
}

// GetNode implements segtree.NodeStore over the framed plane.
func (c *Client) GetNode(blobID uint64, key segtree.NodeKey) (*segtree.Node, error) {
	r := c.nodes.one(nodeCall(opNodeGet, blobID, key, nil))
	if r.err != nil {
		return nil, r.err
	}
	return segtree.DecodeNode(r.data)
}

// TryGetNode implements segtree.NodeStore over the framed plane: the
// server answers from what is stored, never waiting for another writer.
func (c *Client) TryGetNode(blobID uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	r := c.nodes.one(nodeCall(opNodeTryGet, blobID, key, nil))
	if r.err != nil || r.data == nil {
		return nil, false, r.err
	}
	n, err := segtree.DecodeNode(r.data)
	return n, err == nil, err
}

// The four list forms below hand the framed pool a whole batch: the same
// requests as their per-call forms, in a few round trips. segtree's node
// cache and blob's handles find them by assertion.

// PutNodes stores nodes[i] under keys[i] as one batch. Every put is
// attempted; the error is that of the first in key order to fail.
func (c *Client) PutNodes(blobID uint64, keys []segtree.NodeKey, nodes []*segtree.Node) error {
	var enc []byte // every body; it moves while it grows, so they are sliced out after
	ends := make([]int, len(nodes))
	for i, n := range nodes {
		enc = segtree.AppendNode(enc, n)
		ends[i] = len(enc)
	}
	batch := make([]framedCall, len(keys))
	start := 0
	for i, key := range keys {
		batch[i] = nodeCall(opNodePut, blobID, key, enc[start:ends[i]:ends[i]])
		start = ends[i]
	}
	c.nodes.run(batch)
	return firstErr(batch)
}

// GetNodes returns the node of every key, in key order, fetched as one
// batch. A node that is not stored is an error unless try is set, when
// its entry is nil (the batch form of TryGetNode).
func (c *Client) GetNodes(blobID uint64, keys []segtree.NodeKey, try bool) ([]*segtree.Node, error) {
	op := byte(opNodeGet)
	if try {
		op = opNodeTryGet
	}
	batch := make([]framedCall, len(keys))
	for i, key := range keys {
		batch[i] = nodeCall(op, blobID, key, nil)
	}
	c.nodes.run(batch)
	if err := firstErr(batch); err != nil {
		return nil, err
	}
	nodes := make([]*segtree.Node, len(keys))
	for i := range batch {
		if batch[i].data == nil {
			continue // a try-get that missed
		}
		var err error
		if nodes[i], err = segtree.DecodeNode(batch[i].data); err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// firstErr is the outcome of a batch as one error: that of its first call
// to fail.
func firstErr(batch []framedCall) error {
	for i := range batch {
		if batch[i].err != nil {
			return batch[i].err
		}
	}
	return nil
}

// Put implements blob.DataService over the framed plane.
func (c *Client) Put(key chunk.Key, data []byte) ([]provider.ID, error) {
	r := c.pool.one(putCall(key, data))
	return r.ids, r.err
}

// PutMany stores data[i] as chunk keys[i], as one batch, and returns each
// chunk's replica set. Every put is attempted; the error is that of the
// first in key order to fail.
func (c *Client) PutMany(keys []chunk.Key, data [][]byte) ([][]provider.ID, error) {
	batch := make([]framedCall, len(keys))
	for i, key := range keys {
		batch[i] = putCall(key, data[i])
	}
	c.pool.run(batch)
	if err := firstErr(batch); err != nil {
		return nil, err
	}
	ids := make([][]provider.ID, len(keys))
	for i := range batch {
		ids[i] = batch[i].ids
	}
	return ids, nil
}

// Get implements blob.DataService over the framed plane: a read from
// the providers the data node's placement map names, failed over
// server-side. The result's buffer is allocated once the server answers
// ok, so a miss costs none.
func (c *Client) Get(key chunk.Key, off, length int64) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("remote: negative read length %d for chunk %v", length, key)
	}
	r := c.pool.one(getCall(nil, 0, length, key, off))
	if r.err != nil {
		return nil, r.err
	}
	return r.data, nil
}

// GetFrom is Get.
//
// Deprecated: replicas is ignored and fresh is always nil; call Get.
func (c *Client) GetFrom(_ []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	data, err := c.Get(key, off, length)
	return data, nil, err
}

// GetManyInto is Get for every read of the list, each off the socket
// into dst at its At and never past its Length, as one batch; reads
// that fill consecutive bytes of dst leave the socket as one. Every read is attempted; the error is the
// first in list order, after which no read's bytes are to be used.
func (c *Client) GetManyInto(dst []byte, reads []blob.ChunkRead) error {
	batch := make([]framedCall, len(reads))
	for i, r := range reads {
		if r.At < 0 || r.Length < 0 || r.Length > int64(len(dst))-r.At {
			return fmt.Errorf("remote: read %d of chunk %v: %d bytes at %d of a %d-byte destination", i, r.Key, r.Length, r.At, len(dst))
		}
		batch[i] = getCall(dst, int(r.At), r.Length, r.Key, r.Off)
	}
	c.pool.run(batch)
	return firstErr(batch)
}
