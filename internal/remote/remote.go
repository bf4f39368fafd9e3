// Package remote exposes the storage services over TCP, so the
// BlobSeer-equivalent service can run as real distributed processes
// (cmd/blobseerd) while clients use the same blob.Services interfaces
// as the in-process wiring. Control calls — versions, administration —
// are the standard library's net/rpc with gob encoding; chunk payloads
// and segment-tree nodes travel on the framed plane (framed.go), the one
// transport for both. One server process can host any subset of the
// three roles: version manager, metadata provider, data provider.
package remote

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
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

// Service names registered with net/rpc.
const (
	vmService   = "VM"
	dataService = "Data"
	nodeService = "Node"
)

// --- Version manager service ---

// VMBackend is what a version-manager node serves: the client-facing
// VersionService plus the blob catalog the reaper walks and the
// shard-status report.
// Implemented by both *vmanager.Manager (single control server) and
// *vmanager.Sharded (partitioned control plane) — the RPC surface is
// identical either way, so clients never know how many shards serve
// them.
type VMBackend interface {
	blob.VersionService
	Blobs() []uint64
	ShardStatuses() []vmanager.ShardStatus
}

var (
	_ VMBackend = (*vmanager.Manager)(nil)
	_ VMBackend = (*vmanager.Sharded)(nil)
)

// VMServer exposes a version-manager backend over RPC.
type VMServer struct {
	M VMBackend
}

// CreateBlobArgs carries blob creation parameters.
type CreateBlobArgs struct {
	Blob uint64
	Geo  segtree.Geometry
}

// CreateBlob RPC.
func (s *VMServer) CreateBlob(a *CreateBlobArgs, _ *struct{}) error {
	return s.M.CreateBlob(a.Blob, a.Geo)
}

// GeometryArgs selects a blob.
type GeometryArgs struct{ Blob uint64 }

// Geometry RPC.
func (s *VMServer) Geometry(a *GeometryArgs, reply *segtree.Geometry) error {
	g, err := s.M.Geometry(a.Blob)
	if err != nil {
		return err
	}
	*reply = g
	return nil
}

// TicketArgs requests a write ticket.
type TicketArgs struct {
	Blob    uint64
	Extents extent.List
}

// AssignTicket RPC.
func (s *VMServer) AssignTicket(a *TicketArgs, reply *vmanager.Ticket) error {
	tk, err := s.M.AssignTicket(a.Blob, a.Extents)
	if err != nil {
		return err
	}
	*reply = tk
	return nil
}

// CompleteArgs reports a finished snapshot.
type CompleteArgs struct {
	Blob    uint64
	Version uint64
	Root    segtree.NodeKey
}

// Complete RPC.
func (s *VMServer) Complete(a *CompleteArgs, _ *struct{}) error {
	return s.M.Complete(a.Blob, a.Version, a.Root)
}

// Abort RPC.
func (s *VMServer) Abort(a *CompleteArgs, _ *struct{}) error {
	return s.M.Abort(a.Blob, a.Version)
}

// WaitArgs blocks for publication.
type WaitArgs struct {
	Blob    uint64
	Version uint64
}

// WaitPublished RPC.
func (s *VMServer) WaitPublished(a *WaitArgs, _ *struct{}) error {
	return s.M.WaitPublished(a.Blob, a.Version)
}

// LatestPublished RPC.
func (s *VMServer) LatestPublished(a *GeometryArgs, reply *vmanager.SnapshotInfo) error {
	info, err := s.M.LatestPublished(a.Blob)
	if err != nil {
		return err
	}
	*reply = info
	return nil
}

// SnapshotArgs selects a published version.
type SnapshotArgs struct {
	Blob    uint64
	Version uint64
}

// Snapshot RPC.
func (s *VMServer) Snapshot(a *SnapshotArgs, reply *vmanager.SnapshotInfo) error {
	info, err := s.M.Snapshot(a.Blob, a.Version)
	if err != nil {
		return err
	}
	*reply = info
	return nil
}

// Versions RPC.
func (s *VMServer) Versions(a *GeometryArgs, reply *[]uint64) error {
	vs, err := s.M.Versions(a.Blob)
	if err != nil {
		return err
	}
	*reply = vs
	return nil
}

// RetainArgs applies the retention policy to one blob.
type RetainArgs struct {
	Blob     uint64
	KeepLast int
}

// Retain RPC: drop every version older than the newest KeepLast
// (pinned versions skipped); the reply lists the versions newly
// dropped.
func (s *VMServer) Retain(a *RetainArgs, reply *[]uint64) error {
	dropped, err := s.M.Retain(a.Blob, a.KeepLast)
	if err != nil {
		return err
	}
	*reply = dropped
	return nil
}

// DropVersion RPC: remove one published version from the readable set
// and queue it for chunk reclamation.
func (s *VMServer) DropVersion(a *SnapshotArgs, _ *struct{}) error {
	return s.M.DropVersion(a.Blob, a.Version)
}

// Pin RPC: protect a version from retention (reader holding it open).
func (s *VMServer) Pin(a *SnapshotArgs, _ *struct{}) error {
	return s.M.Pin(a.Blob, a.Version)
}

// Unpin RPC: release one Pin.
func (s *VMServer) Unpin(a *SnapshotArgs, _ *struct{}) error {
	return s.M.Unpin(a.Blob, a.Version)
}

// GCInfo RPC: the version-lifecycle snapshot a collector pass plans
// from.
func (s *VMServer) GCInfo(a *GeometryArgs, reply *vmanager.GCInfo) error {
	info, err := s.M.GCInfo(a.Blob)
	if err != nil {
		return err
	}
	*reply = info
	return nil
}

// MarkReclaimed RPC: record that a pending version's exclusive chunks
// were deleted.
func (s *VMServer) MarkReclaimed(a *SnapshotArgs, _ *struct{}) error {
	return s.M.MarkReclaimed(a.Blob, a.Version)
}

// ShardStatusArgs selects the control-plane shard report.
type ShardStatusArgs struct{}

// ShardStatusReply lists every control-plane shard's status, in shard
// order (a single unsharded manager reports one shard).
type ShardStatusReply struct {
	Shards []vmanager.ShardStatus
}

// ShardStatus RPC: the per-shard control-plane report (bsctl status).
func (s *VMServer) ShardStatus(_ *ShardStatusArgs, reply *ShardStatusReply) error {
	reply.Shards = s.M.ShardStatuses()
	return nil
}

// --- Data service ---

// DataServer exposes a provider.Router's control surface over RPC —
// repair, provider flags, audits, statistics; chunk bytes travel on the
// framed plane — plus, when the node runs the self-healing loop, its
// health monitor and healer, and, when it runs the garbage collector,
// its reaper.
type DataServer struct {
	R *provider.Router
	H *provider.HealthMonitor // nil unless self-heal enabled
	E *core.Healer            // nil unless self-heal enabled
	G *core.Reaper            // nil unless GC enabled
}

// RepairArgs triggers a re-replication pass.
type RepairArgs struct{}

// Repair RPC: scan placement for chunks below the replication degree
// and re-replicate them from surviving copies (bsctl repair).
func (s *DataServer) Repair(_ *RepairArgs, reply *provider.RepairStats) error {
	*reply = s.R.Repair()
	return nil
}

// SetDownArgs marks one provider dead or revived.
type SetDownArgs struct {
	Provider provider.ID
	Down     bool
}

// SetProviderDown RPC: administrative kill switch used to drain a
// machine or to model its loss (bsctl down/up).
func (s *DataServer) SetProviderDown(a *SetDownArgs, _ *struct{}) error {
	return s.R.SetDown(a.Provider, a.Down)
}

// SetDomainArgs registers one provider's failure-domain label.
type SetDomainArgs struct {
	Provider provider.ID
	Domain   string
}

// SetProviderDomain RPC: register a provider with a failure domain
// (rack/zone) after the fact — retagging the topology (bsctl domain).
// Placement spreads subsequent replicas across the registered domains;
// the scrubber's spread audit re-finds chunks the new topology leaves
// co-located and repair re-spreads them.
func (s *DataServer) SetProviderDomain(a *SetDomainArgs, _ *struct{}) error {
	return s.R.SetDomain(a.Provider, a.Domain)
}

// SpreadAuditArgs selects the correlated-loss exposure report.
type SpreadAuditArgs struct{}

// SpreadAuditReply lists the chunks whose live replicas violate the
// domain-spread invariant (co-located in fewer domains than the pool
// could spread them over).
type SpreadAuditReply struct {
	Violations []chunk.Key
}

// SpreadAudit RPC: scan placement for chunks exposed to a correlated
// single-domain loss (bsctl health). Empty on a flat pool.
func (s *DataServer) SpreadAudit(_ *SpreadAuditArgs, reply *SpreadAuditReply) error {
	reply.Violations = s.R.SpreadAudit()
	return nil
}

// HealthArgs selects the health snapshot.
type HealthArgs struct{}

// Health RPC: the per-provider health states of the error-driven
// failure detector (bsctl health). Fails when the node does not run
// the self-healing loop.
func (s *DataServer) Health(_ *HealthArgs, reply *[]provider.HealthStatus) error {
	if s.H == nil {
		return errors.New("remote: self-heal not enabled on this node (blobseerd -self-heal)")
	}
	*reply = s.H.Snapshot()
	return nil
}

// ScrubArgs selects the scrub operation.
type ScrubArgs struct {
	// Sync, when set, runs a full scrub pass (and drains the repair
	// queue) before replying; otherwise the current counters return.
	Sync bool
}

// Scrub RPC: background-healer statistics, optionally after forcing a
// full synchronous scrub+repair pass (bsctl scrub [-sync]). Fails when
// the node does not run the self-healing loop.
func (s *DataServer) Scrub(a *ScrubArgs, reply *core.HealerStats) error {
	if s.E == nil {
		return errors.New("remote: self-heal not enabled on this node (blobseerd -self-heal)")
	}
	if a.Sync {
		*reply = s.E.Pass()
	} else {
		*reply = s.E.Stats()
	}
	return nil
}

// CodingArgs selects the placement-mode report.
type CodingArgs struct{}

// CodingReply reports the node's chunk placement mode: erasure coding
// (K data + M parity fragments) when Coded, R-way replication
// otherwise.
type CodingReply struct {
	Coded    bool
	K, M     int
	Replicas int
	Quorum   int
}

// Coding RPC: the data node's placement mode (bsctl health shows it so
// operators know what durability the pool promises).
func (s *DataServer) Coding(_ *CodingArgs, reply *CodingReply) error {
	k, m, on := s.R.Coding()
	reply.Coded, reply.K, reply.M = on, k, m
	reply.Replicas = s.R.Replicas()
	reply.Quorum = s.R.WriteQuorum()
	return nil
}

// UsageArgs selects the space-accounting snapshot.
type UsageArgs struct{}

// Usage RPC: per-provider chunk counts and stored bytes (bsctl usage)
// — the operator's space view and the reclamation verification feed.
func (s *DataServer) Usage(_ *UsageArgs, reply *[]provider.ProviderUsage) error {
	*reply = s.R.Usage()
	return nil
}

// ReadTierArgs selects the read-tier snapshot.
type ReadTierArgs struct{}

// ReadTierReply reports the node's hot-path read-tier state: the
// configured reader domain with its locality counters, and — when the
// bounded read-through cache is enabled — the cache counters.
type ReadTierReply struct {
	LocalDomain  string
	Locality     provider.ReadLocalityStats
	CacheEnabled bool
	Cache        provider.ReadCacheStats
}

// ReadTier RPC: zone-local read statistics and cache counters
// (bsctl readtier). Always answers; the reply's fields report which
// parts of the tier (locality, cache) this node has enabled.
func (s *DataServer) ReadTier(_ *ReadTierArgs, reply *ReadTierReply) error {
	reply.LocalDomain = s.R.LocalDomain()
	reply.Locality = s.R.ReadLocality()
	if c := s.R.ReadCache(); c != nil {
		reply.CacheEnabled = true
		reply.Cache = c.Stats()
	}
	return nil
}

// GCArgs selects the garbage-collection operation.
type GCArgs struct {
	// Sync, when set, runs a full collection pass (retention, diff
	// walk, deletions) before replying; otherwise the current counters
	// return.
	Sync bool
}

// GC RPC: reaper statistics, optionally after forcing a synchronous
// collection pass (bsctl gc [-sync]). Fails when the node does not run
// the garbage collector.
func (s *DataServer) GC(a *GCArgs, reply *core.ReaperStats) error {
	if s.G == nil {
		return errors.New("remote: GC not enabled on this node (blobseerd -gc)")
	}
	if a.Sync {
		*reply = s.G.Pass()
	} else {
		*reply = s.G.Stats()
	}
	return nil
}

// --- Node introspection service ---

// NodeServer exposes process-level introspection: the node's metrics
// registry in Prometheus text exposition (bsctl metrics).
type NodeServer struct {
	Reg *metrics.Registry
}

// MetricsArgs selects the metrics exposition.
type MetricsArgs struct{}

// Metrics RPC: the node's full metrics registry rendered in Prometheus
// text exposition format.
func (s *NodeServer) Metrics(_ *MetricsArgs, reply *string) error {
	var buf strings.Builder
	if err := s.Reg.WritePrometheus(&buf); err != nil {
		return err
	}
	*reply = buf.String()
	return nil
}

// --- Node (server process) ---

// Roles selects which services a node hosts. Health and Healer ride
// along with the data role when the node runs the self-healing loop;
// Reaper rides along when it runs the version-lifecycle garbage
// collector.
type Roles struct {
	VM     VMBackend
	Meta   *metadata.Store
	Data   *provider.Router
	Health *provider.HealthMonitor
	Healer *core.Healer
	Reaper *core.Reaper

	// Metrics, when non-nil, registers the Node introspection service
	// (Prometheus exposition via bsctl metrics) and counts every inbound
	// RPC into bs_rpc_requests_total{method="..."}.
	Metrics *metrics.Registry
}

// Node is one running storage-service process.
type Node struct {
	lis net.Listener
	srv *rpc.Server
	reg *metrics.Registry // nil when the node has no metrics role
	fr  *framedServer

	// conns tracks accepted connections so Close terminates them along
	// with the listener — a closed Node behaves like a dead process,
	// which is what clients (and their connection pools) must handle.
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
	srv := rpc.NewServer()
	if roles.VM != nil {
		if err := srv.RegisterName(vmService, &VMServer{M: roles.VM}); err != nil {
			return nil, err
		}
	}
	if roles.Data != nil {
		if err := srv.RegisterName(dataService, &DataServer{R: roles.Data, H: roles.Health, E: roles.Healer, G: roles.Reaper}); err != nil {
			return nil, err
		}
	}
	if roles.Metrics != nil {
		if err := srv.RegisterName(nodeService, &NodeServer{Reg: roles.Metrics}); err != nil {
			return nil, err
		}
	}
	n := &Node{lis: lis, srv: srv, reg: roles.Metrics, fr: newFramedServer(roles), conns: make(map[net.Conn]struct{})}
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
// everything else is a gob RPC client. The peek happens off the accept
// loop because it blocks until the client's first write.
func (n *Node) handleConn(conn net.Conn) {
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
	br := bufio.NewReaderSize(conn, 64<<10)
	head, err := br.Peek(len(framedMagic))
	if err != nil {
		conn.Close()
		return
	}
	if string(head) == framedMagic {
		br.Discard(len(framedMagic))
		n.fr.serve(conn, br)
		return
	}
	// Gob fallthrough: the peeked bytes stay in br, so the RPC codec
	// must read through it.
	bc := &bufferedConn{Conn: conn, r: br}
	if n.reg != nil {
		n.srv.ServeCodec(newCountingServerCodec(bc, n.reg))
	} else {
		n.srv.ServeConn(bc)
	}
}

// bufferedConn splices a peeked bufio.Reader back onto its connection.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

func (b *bufferedConn) Read(p []byte) (int, error) { return b.r.Read(p) }

// countingServerCodec is the stdlib gob server codec with one addition:
// every decoded request header counts into
// bs_rpc_requests_total{method="Service.Method"}, giving the per-node
// RPC traffic breakdown without touching any service implementation.
type countingServerCodec struct {
	rwc    io.ReadWriteCloser
	dec    *gob.Decoder
	enc    *gob.Encoder
	encBuf *bufio.Writer
	reg    *metrics.Registry
	closed bool
}

func newCountingServerCodec(conn io.ReadWriteCloser, reg *metrics.Registry) rpc.ServerCodec {
	buf := bufio.NewWriter(conn)
	return &countingServerCodec{
		rwc:    conn,
		dec:    gob.NewDecoder(conn),
		enc:    gob.NewEncoder(buf),
		encBuf: buf,
		reg:    reg,
	}
}

func (c *countingServerCodec) ReadRequestHeader(r *rpc.Request) error {
	if err := c.dec.Decode(r); err != nil {
		return err
	}
	c.reg.Counter("bs_rpc_requests_total", metrics.Label{Key: "method", Value: r.ServiceMethod}).Inc()
	return nil
}

func (c *countingServerCodec) ReadRequestBody(body any) error {
	return c.dec.Decode(body)
}

func (c *countingServerCodec) WriteResponse(r *rpc.Response, body any) (err error) {
	if err = c.enc.Encode(r); err != nil {
		if c.encBuf.Flush() == nil {
			// Gob couldn't encode the header; the connection is beyond
			// recovery.
			c.Close()
		}
		return
	}
	if err = c.enc.Encode(body); err != nil {
		if c.encBuf.Flush() == nil {
			c.Close()
		}
		return
	}
	return c.encBuf.Flush()
}

func (c *countingServerCodec) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.rwc.Close()
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.lis.Addr().String() }

// Close stops the node: the listener stops accepting and every served
// connection is torn down, so a closed Node is indistinguishable from
// a killed process to its clients.
func (n *Node) Close() error {
	err := n.lis.Close()
	n.connMu.Lock()
	n.closed = true
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return err
}

// --- Client ---

// Client talks to remote service nodes and implements the client-side
// service interfaces (blob.VersionService, segtree.NodeStore,
// blob.DataService).
type Client struct {
	vm   *rpc.Client
	data *rpc.Client

	// The framed plane, each pool on its own connections: pool carries
	// Put/Get/GetFrom to the data endpoint, nodes carries
	// PutNode/GetNode/TryGetNode to the meta endpoint; control RPCs stay
	// on the gob connections above.
	pool  *framedPool
	nodes *framedPool
}

// Endpoints names the service addresses a client needs. Any subset may
// point at the same node.
type Endpoints struct {
	VM   string
	Meta string
	Data string
}

// DialFramed connects to the VM and data endpoints for control RPCs,
// which are gob, and carries the chunk data path — Put/Get/GetFrom — and
// the tree-node path — PutNode/GetNode/TryGetNode — on the framed wire
// protocol: bodies travel in frames over a small pool of dedicated
// connections to the data endpoint, and another to the meta endpoint,
// concurrent calls sharing a connection's round trips as trains. The
// pools dial on first use, so a client that makes only control calls
// opens no framed connection, and one whose meta endpoint is down learns
// it from its first node call. The server negotiates per connection;
// both kinds arrive on one port.
func DialFramed(ep Endpoints) (*Client, error) {
	c := &Client{pool: newFramedPool(ep.Data), nodes: newFramedPool(ep.Meta)}
	var err error
	if c.vm, err = rpc.Dial("tcp", ep.VM); err != nil {
		return nil, fmt.Errorf("remote: dial vm %s: %w", ep.VM, err)
	}
	if c.data, err = rpc.Dial("tcp", ep.Data); err != nil {
		c.vm.Close()
		return nil, fmt.Errorf("remote: dial data %s: %w", ep.Data, err)
	}
	return c, nil
}

// SetMetrics registers the framed plane's client-side series in reg,
// chunk and node traffic counted together: bs_data_dials_total, the
// connections it dials (flat in steady state — a pool redials only
// after a peer restart), and the histogram bs_data_train_ops, the
// requests each train carries in one round trip (1 throughout means
// callers never outnumber connections). Call it before the first framed
// call.
func (c *Client) SetMetrics(reg *metrics.Registry) {
	for _, p := range []*framedPool{c.pool, c.nodes} {
		p.dials = reg.Counter("bs_data_dials_total")
		p.trainOps = reg.Histogram("bs_data_train_ops", trainBuckets())
	}
}

// Close terminates all connections: the control connections and the
// framed plane's idle ones at once, a framed connection with a train on
// it when that train is answered. Chunk and node calls started after
// Close, or still queued for a connection at Close, fail with
// ErrClientClosed; those already written to a connection finish.
// Control calls fail with rpc.ErrShutdown.
func (c *Client) Close() error {
	c.pool.close()
	c.nodes.close()
	return errors.Join(c.vm.Close(), c.data.Close())
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

// CreateBlob implements blob.VersionService.
func (c *Client) CreateBlob(blobID uint64, geo segtree.Geometry) error {
	return c.vm.Call(vmService+".CreateBlob", &CreateBlobArgs{Blob: blobID, Geo: geo}, &struct{}{})
}

// Geometry implements blob.VersionService.
func (c *Client) Geometry(blobID uint64) (segtree.Geometry, error) {
	var g segtree.Geometry
	err := c.vm.Call(vmService+".Geometry", &GeometryArgs{Blob: blobID}, &g)
	return g, err
}

// AssignTicket implements blob.VersionService.
func (c *Client) AssignTicket(blobID uint64, e extent.List) (vmanager.Ticket, error) {
	var tk vmanager.Ticket
	err := c.vm.Call(vmService+".AssignTicket", &TicketArgs{Blob: blobID, Extents: e}, &tk)
	return tk, err
}

// Complete implements blob.VersionService.
func (c *Client) Complete(blobID, v uint64, root segtree.NodeKey) error {
	return c.vm.Call(vmService+".Complete", &CompleteArgs{Blob: blobID, Version: v, Root: root}, &struct{}{})
}

// Abort implements blob.VersionService.
func (c *Client) Abort(blobID, v uint64) error {
	return c.vm.Call(vmService+".Abort", &CompleteArgs{Blob: blobID, Version: v}, &struct{}{})
}

// WaitPublished implements blob.VersionService.
func (c *Client) WaitPublished(blobID, v uint64) error {
	return c.vm.Call(vmService+".WaitPublished", &WaitArgs{Blob: blobID, Version: v}, &struct{}{})
}

// LatestPublished implements blob.VersionService.
func (c *Client) LatestPublished(blobID uint64) (vmanager.SnapshotInfo, error) {
	var info vmanager.SnapshotInfo
	err := c.vm.Call(vmService+".LatestPublished", &GeometryArgs{Blob: blobID}, &info)
	return info, err
}

// Snapshot implements blob.VersionService.
func (c *Client) Snapshot(blobID, v uint64) (vmanager.SnapshotInfo, error) {
	var info vmanager.SnapshotInfo
	err := c.vm.Call(vmService+".Snapshot", &SnapshotArgs{Blob: blobID, Version: v}, &info)
	return info, err
}

// Versions implements blob.VersionService.
func (c *Client) Versions(blobID uint64) ([]uint64, error) {
	var vs []uint64
	err := c.vm.Call(vmService+".Versions", &GeometryArgs{Blob: blobID}, &vs)
	return vs, err
}

// Retain implements blob.VersionService.
func (c *Client) Retain(blobID uint64, keepLast int) ([]uint64, error) {
	var dropped []uint64
	err := c.vm.Call(vmService+".Retain", &RetainArgs{Blob: blobID, KeepLast: keepLast}, &dropped)
	return dropped, err
}

// DropVersion implements blob.VersionService.
func (c *Client) DropVersion(blobID, v uint64) error {
	return c.vm.Call(vmService+".DropVersion", &SnapshotArgs{Blob: blobID, Version: v}, &struct{}{})
}

// Pin implements blob.VersionService.
func (c *Client) Pin(blobID, v uint64) error {
	return c.vm.Call(vmService+".Pin", &SnapshotArgs{Blob: blobID, Version: v}, &struct{}{})
}

// Unpin implements blob.VersionService.
func (c *Client) Unpin(blobID, v uint64) error {
	return c.vm.Call(vmService+".Unpin", &SnapshotArgs{Blob: blobID, Version: v}, &struct{}{})
}

// GCInfo implements blob.VersionService.
func (c *Client) GCInfo(blobID uint64) (vmanager.GCInfo, error) {
	var info vmanager.GCInfo
	err := c.vm.Call(vmService+".GCInfo", &GeometryArgs{Blob: blobID}, &info)
	return info, err
}

// MarkReclaimed implements blob.VersionService.
func (c *Client) MarkReclaimed(blobID, v uint64) error {
	return c.vm.Call(vmService+".MarkReclaimed", &SnapshotArgs{Blob: blobID, Version: v}, &struct{}{})
}

// PutNode implements segtree.NodeStore over the framed plane.
func (c *Client) PutNode(blobID uint64, key segtree.NodeKey, n *segtree.Node) error {
	_, err := c.nodes.node(opNodePut, blobID, key, segtree.AppendNode(nil, n))
	return err
}

// GetNode implements segtree.NodeStore over the framed plane.
func (c *Client) GetNode(blobID uint64, key segtree.NodeKey) (*segtree.Node, error) {
	enc, err := c.nodes.node(opNodeGet, blobID, key, nil)
	if err != nil {
		return nil, err
	}
	return segtree.DecodeNode(enc)
}

// TryGetNode implements segtree.NodeStore over the framed plane. It
// queues behind this client's own calls like any other, never behind
// another writer: the server answers from what is stored.
func (c *Client) TryGetNode(blobID uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	enc, err := c.nodes.node(opNodeTryGet, blobID, key, nil)
	if err != nil || enc == nil {
		return nil, false, err
	}
	n, err := segtree.DecodeNode(enc)
	return n, err == nil, err
}

// The four list forms below hand the framed pool a whole batch, which it
// cuts into trains: the calls of one tree build, tree level or list-read
// cost a few round trips and block no goroutine per call. Each is what
// its per-call form would be, call by call — the same requests on the
// same wire — and none is part of segtree.NodeStore or blob.DataService:
// segtree's node cache and blob's handles find them by assertion.

// PutNodes stores nodes[i] under keys[i] as one batch. Every put is
// attempted; the error is that of the first in key order to fail.
func (c *Client) PutNodes(blobID uint64, keys []segtree.NodeKey, nodes []*segtree.Node) error {
	// One buffer holds every body; it may move while it grows, so the
	// bodies are sliced out of it afterwards.
	var enc []byte
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
	return c.pool.put(key, data)
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

// Get implements blob.DataService over the framed plane.
func (c *Client) Get(key chunk.Key, off, length int64) ([]byte, error) {
	data, _, err := c.GetFrom(nil, key, off, length)
	return data, err
}

// GetFrom implements blob.DataService over the framed plane: a read
// carrying the replica hint recorded in metadata, served with
// server-side failover. A non-nil fresh replica set means the hint was
// stale and the caller should cache the returned set.
func (c *Client) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	if length < 0 {
		return nil, nil, fmt.Errorf("remote: negative read length %d for chunk %v", length, key)
	}
	data := make([]byte, length)
	fresh, err := c.GetInto(data, replicas, key, off)
	if err != nil {
		return nil, nil, err
	}
	return data, fresh, nil
}

// GetInto is GetFrom into the caller's buffer: it reads exactly len(dst)
// bytes at off of the chunk, off the socket straight into dst, and never
// touches dst's capacity beyond them. After an error dst holds nothing
// the caller may use. (blob's read path finds this method by assertion;
// it is not part of blob.DataService.)
func (c *Client) GetInto(dst []byte, replicas []provider.ID, key chunk.Key, off int64) (fresh []provider.ID, err error) {
	return c.pool.get(dst, replicas, key, off)
}

// GetManyInto is GetInto for every read of the list, as one batch: each
// Dst filled off the socket, each Fresh set where the hint was stale.
// Every read is attempted; the error is that of the first in list order
// to fail, and after it no Dst holds anything the caller may use.
func (c *Client) GetManyInto(reads []blob.ChunkRead) error {
	batch := make([]framedCall, len(reads))
	for i, r := range reads {
		batch[i] = getCall(r.Dst, r.Replicas, r.Key, r.Off)
	}
	c.pool.run(batch)
	for i := range batch {
		reads[i].Fresh = batch[i].ids
	}
	return firstErr(batch)
}

// Repair runs a re-replication pass on the data node and returns its
// statistics.
func (c *Client) Repair() (provider.RepairStats, error) {
	var st provider.RepairStats
	err := c.data.Call(dataService+".Repair", &RepairArgs{}, &st)
	return st, err
}

// SetProviderDown marks one provider on the data node dead (or revives
// it).
func (c *Client) SetProviderDown(id provider.ID, down bool) error {
	return c.data.Call(dataService+".SetProviderDown", &SetDownArgs{Provider: id, Down: down}, &struct{}{})
}

// SetProviderDomain registers one provider's failure-domain label on
// the data node.
func (c *Client) SetProviderDomain(id provider.ID, domain string) error {
	return c.data.Call(dataService+".SetProviderDomain", &SetDomainArgs{Provider: id, Domain: domain}, &struct{}{})
}

// SpreadAudit returns the chunks on the data node whose live replicas
// violate the domain-spread invariant.
func (c *Client) SpreadAudit() ([]chunk.Key, error) {
	var reply SpreadAuditReply
	err := c.data.Call(dataService+".SpreadAudit", &SpreadAuditArgs{}, &reply)
	return reply.Violations, err
}

// Health returns the data node's per-provider health snapshot (errors
// when the node does not run the self-healing loop).
func (c *Client) Health() ([]provider.HealthStatus, error) {
	var st []provider.HealthStatus
	err := c.data.Call(dataService+".Health", &HealthArgs{}, &st)
	return st, err
}

// Scrub returns the data node's healer statistics; with sync it first
// forces a full scrub pass and drains the repair queue.
func (c *Client) Scrub(sync bool) (core.HealerStats, error) {
	var st core.HealerStats
	err := c.data.Call(dataService+".Scrub", &ScrubArgs{Sync: sync}, &st)
	return st, err
}

// Coding reports the data node's chunk placement mode (erasure coding
// vs replication) and effective write quorum.
func (c *Client) Coding() (CodingReply, error) {
	var rep CodingReply
	err := c.data.Call(dataService+".Coding", &CodingArgs{}, &rep)
	return rep, err
}

// Usage returns the data node's per-provider space accounting.
func (c *Client) Usage() ([]provider.ProviderUsage, error) {
	var us []provider.ProviderUsage
	err := c.data.Call(dataService+".Usage", &UsageArgs{}, &us)
	return us, err
}

// GC returns the node's garbage-collector statistics; with sync it
// first forces a full collection pass (errors when the node does not
// run the reaper).
func (c *Client) GC(sync bool) (core.ReaperStats, error) {
	var st core.ReaperStats
	err := c.data.Call(dataService+".GC", &GCArgs{Sync: sync}, &st)
	return st, err
}

// ReadTier returns the data node's read-tier snapshot: reader domain,
// locality counters, and cache statistics when the cache is enabled.
func (c *Client) ReadTier() (ReadTierReply, error) {
	var reply ReadTierReply
	err := c.data.Call(dataService+".ReadTier", &ReadTierArgs{}, &reply)
	return reply, err
}

// Metrics returns the data node's metrics registry in Prometheus text
// exposition format (errors when the node has no metrics role).
func (c *Client) Metrics() (string, error) {
	var text string
	err := c.data.Call(nodeService+".Metrics", &MetricsArgs{}, &text)
	return text, err
}

// ShardStatus returns the version-manager node's per-shard
// control-plane report.
func (c *Client) ShardStatus() ([]vmanager.ShardStatus, error) {
	var reply ShardStatusReply
	err := c.vm.Call(vmService+".ShardStatus", &ShardStatusArgs{}, &reply)
	return reply.Shards, err
}
