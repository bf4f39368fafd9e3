package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// A traced run interposes timing decorators at every seam that is
// already an interface or a public constructor. Nothing inside the
// program is touched: each decorator wraps the real implementation,
// times the call from outside and records a span. Untraced runs
// install no decorator at all.

type spanKind uint8

const (
	spOpWrite   spanKind = iota // one atomic write call as the rank issued it
	spOpRead                    // one list-read call as the rank issued it
	spCoreWrite                 // core.Backend under mpiio
	spCoreRead
	spVMTicket // client side of blob.Services.VM, over remote.Client
	spVMComplete
	spVMWait
	spVMLatest
	spVMSnapshot
	spMetaPut // client side of blob.Services.Meta
	spMetaGet
	spDataPut // client side of blob.Services.Data
	spDataGet
	spSrvTicket // server side, remote.VMBackend
	spSrvComplete
	spSrvSnapshot
	spStorePut // server side, chunk.Store under a provider
	spStoreGet
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"client.write", "client.read", "core.WriteList", "core.ReadList",
	"vm.AssignTicket", "vm.Complete", "vm.WaitPublished", "vm.LatestPublished", "vm.Snapshot",
	"meta.PutNode", "meta.GetNode", "data.Put", "data.GetFrom",
	"server.vm.AssignTicket", "server.vm.Complete", "server.vm.Snapshot",
	"server.store.Put", "server.store.Get",
}

// span is one timed call. Op is the client operation that caused it;
// server-side spans carry 0 until trace IDs cross the wire.
type span struct {
	Kind       spanKind
	Rank       int8
	Op         uint32
	Start, End int64 // ns since the tracer's origin
	Bytes      int64
}

// writeRecord is one write's tree-building input, kept for the
// isolated segtree replay.
type writeRecord struct {
	version uint64
	extents extent.List
	borrows map[extent.Extent]uint64
	timed   bool
}

// readRecord is one read's tree-walk input.
type readRecord struct {
	version uint64
	query   extent.List
}

type tracer struct {
	origin time.Time
	on     atomic.Bool // spans are kept only inside the timed phases
	nextOp atomic.Uint32

	mu     sync.Mutex
	spans  []span
	writes []writeRecord
	reads  []readRecord
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) rec(kind spanKind, rc *rankCtx, start time.Time, bytes int64) {
	if !t.on.Load() {
		return
	}
	end := time.Now()
	s := span{Kind: kind, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), Bytes: bytes}
	if rc != nil {
		s.Rank, s.Op = int8(rc.rank), rc.op.Load()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// noteRead keeps a timed read's tree-walk input for the isolated
// segtree replay.
func (t *tracer) noteRead(version uint64, q extent.List) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.reads = append(t.reads, readRecord{version, q})
	t.mu.Unlock()
}

// rankCtx ties the calls a rank's blob handle makes (from goroutines
// the blob layer starts) to the one operation the rank has in flight.
type rankCtx struct {
	rank int
	op   atomic.Uint32
}

// beginOp opens a client operation on the rank and returns the
// function that closes it.
func (t *tracer) beginOp(rc *rankCtx, kind spanKind) func(bytes int64) {
	rc.op.Store(t.nextOp.Add(1))
	start := time.Now()
	return func(bytes int64) { t.rec(kind, rc, start, bytes) }
}

// --- client-side decorators ---

type tracedVM struct {
	blob.VersionService
	tr *tracer
	rc *rankCtx
}

func (v *tracedVM) AssignTicket(b uint64, e extent.List) (vmanager.Ticket, error) {
	start := time.Now()
	tk, err := v.VersionService.AssignTicket(b, e)
	v.tr.rec(spVMTicket, v.rc, start, 0)
	if err == nil {
		v.tr.mu.Lock()
		v.tr.writes = append(v.tr.writes, writeRecord{tk.Version, e, tk.Borrows, v.tr.on.Load()})
		v.tr.mu.Unlock()
	}
	return tk, err
}

func (v *tracedVM) Complete(b, ver uint64, root segtree.NodeKey) error {
	defer v.tr.rec(spVMComplete, v.rc, time.Now(), 0)
	return v.VersionService.Complete(b, ver, root)
}

func (v *tracedVM) WaitPublished(b, ver uint64) error {
	defer v.tr.rec(spVMWait, v.rc, time.Now(), 0)
	return v.VersionService.WaitPublished(b, ver)
}

func (v *tracedVM) LatestPublished(b uint64) (vmanager.SnapshotInfo, error) {
	defer v.tr.rec(spVMLatest, v.rc, time.Now(), 0)
	return v.VersionService.LatestPublished(b)
}

func (v *tracedVM) Snapshot(b, ver uint64) (vmanager.SnapshotInfo, error) {
	defer v.tr.rec(spVMSnapshot, v.rc, time.Now(), 0)
	return v.VersionService.Snapshot(b, ver)
}

type tracedMeta struct {
	inner segtree.NodeStore
	tr    *tracer
	rc    *rankCtx
}

func (m *tracedMeta) PutNode(b uint64, k segtree.NodeKey, n *segtree.Node) error {
	defer m.tr.rec(spMetaPut, m.rc, time.Now(), 0)
	return m.inner.PutNode(b, k, n)
}

func (m *tracedMeta) GetNode(b uint64, k segtree.NodeKey) (*segtree.Node, error) {
	defer m.tr.rec(spMetaGet, m.rc, time.Now(), 0)
	return m.inner.GetNode(b, k)
}

func (m *tracedMeta) TryGetNode(b uint64, k segtree.NodeKey) (*segtree.Node, bool, error) {
	defer m.tr.rec(spMetaGet, m.rc, time.Now(), 0)
	return m.inner.TryGetNode(b, k)
}

type tracedData struct {
	inner blob.DataService
	tr    *tracer
	rc    *rankCtx
}

func (d *tracedData) Put(k chunk.Key, data []byte) ([]provider.ID, error) {
	defer d.tr.rec(spDataPut, d.rc, time.Now(), int64(len(data)))
	return d.inner.Put(k, data)
}

func (d *tracedData) Get(k chunk.Key, off, length int64) ([]byte, error) {
	defer d.tr.rec(spDataGet, d.rc, time.Now(), length)
	return d.inner.Get(k, off, length)
}

func (d *tracedData) GetFrom(r []provider.ID, k chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	defer d.tr.rec(spDataGet, d.rc, time.Now(), length)
	return d.inner.GetFrom(r, k, off, length)
}

// traceServices wraps a rank's service bundle.
func (t *tracer) traceServices(svc blob.Services, rc *rankCtx) blob.Services {
	return blob.Services{
		VM:   &tracedVM{svc.VM, t, rc},
		Meta: &tracedMeta{svc.Meta, t, rc},
		Data: &tracedData{svc.Data, t, rc},
	}
}

type tracedBackend struct {
	core.Backend
	tr *tracer
	rc *rankCtx
}

func (b *tracedBackend) WriteList(vec extent.Vec) (core.Version, error) {
	defer b.tr.rec(spCoreWrite, b.rc, time.Now(), int64(len(vec.Extents)))
	return b.Backend.WriteList(vec)
}

func (b *tracedBackend) ReadList(q extent.List) ([]byte, core.Version, error) {
	start := time.Now()
	data, v, err := b.Backend.ReadList(q)
	b.tr.rec(spCoreRead, b.rc, start, int64(len(q)))
	if err == nil {
		b.tr.noteRead(uint64(v), q)
	}
	return data, v, err
}

// --- server-side decorators ---

type tracedVMBackend struct {
	remote.VMBackend
	tr *tracer
}

func (v *tracedVMBackend) AssignTicket(b uint64, e extent.List) (vmanager.Ticket, error) {
	defer v.tr.rec(spSrvTicket, nil, time.Now(), 0)
	return v.VMBackend.AssignTicket(b, e)
}

func (v *tracedVMBackend) Complete(b, ver uint64, root segtree.NodeKey) error {
	defer v.tr.rec(spSrvComplete, nil, time.Now(), 0)
	return v.VMBackend.Complete(b, ver, root)
}

func (v *tracedVMBackend) Snapshot(b, ver uint64) (vmanager.SnapshotInfo, error) {
	defer v.tr.rec(spSrvSnapshot, nil, time.Now(), 0)
	return v.VMBackend.Snapshot(b, ver)
}

func (v *tracedVMBackend) LatestPublished(b uint64) (vmanager.SnapshotInfo, error) {
	defer v.tr.rec(spSrvSnapshot, nil, time.Now(), 0)
	return v.VMBackend.LatestPublished(b)
}

// tracedStore times a provider's chunk store. A streamed put's span
// covers pulling the payload off the socket, because that is where the
// store's PutFromReader spends its time; a streamed get's span covers
// only the open, the copy to the socket belongs to the wire.
type tracedStore struct {
	chunk.Store
	tr *tracer
}

func (s *tracedStore) Put(k chunk.Key, data []byte) error {
	defer s.tr.rec(spStorePut, nil, time.Now(), int64(len(data)))
	return s.Store.Put(k, data)
}

func (s *tracedStore) PutFromReader(k chunk.Key, size int64, r io.Reader) error {
	defer s.tr.rec(spStorePut, nil, time.Now(), size)
	return s.Store.PutFromReader(k, size, r)
}

func (s *tracedStore) Get(k chunk.Key, off, length int64) ([]byte, error) {
	defer s.tr.rec(spStoreGet, nil, time.Now(), length)
	return s.Store.Get(k, off, length)
}

func (s *tracedStore) OpenReader(k chunk.Key, off, length int64) (io.ReadCloser, error) {
	defer s.tr.rec(spStoreGet, nil, time.Now(), length)
	return s.Store.OpenReader(k, off, length)
}

// --- aggregation ---

// opAgg sums the spans of all client operations of one kind.
type opAgg struct {
	n          int
	opNs       int64 // the operations themselves
	coreNs     int64 // core.Backend spans inside them (tile_atomic only)
	childNs    int64 // union of all service calls inside each operation
	extents    int64
	unionNs    [nSpanKinds]int64 // union of one kind's calls inside each operation
	sumNs      [nSpanKinds]int64
	count      [nSpanKinds]int64
	bytes      [nSpanKinds]int64
	hasCoreSpn bool
}

// traceAgg is what one traced segment's spans add up to.
type traceAgg struct {
	write, read opAgg
	srvSumNs    [nSpanKinds]int64
	srvCount    [nSpanKinds]int64
	srvBytes    [nSpanKinds]int64
}

type interval struct{ lo, hi int64 }

// unionNs is the time covered by at least one of the intervals.
func unionNs(iv []interval) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total int64
	end := int64(-1 << 62)
	for _, x := range iv {
		if x.lo > end {
			total += x.hi - x.lo
			end = x.hi
		} else if x.hi > end {
			total += x.hi - end
			end = x.hi
		}
	}
	return total
}

func (t *tracer) aggregate() traceAgg {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	var agg traceAgg
	byOp := make(map[uint32][]span)
	for _, s := range spans {
		if s.Kind >= spSrvTicket {
			agg.srvSumNs[s.Kind] += s.End - s.Start
			agg.srvCount[s.Kind]++
			agg.srvBytes[s.Kind] += s.Bytes
			continue
		}
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, group := range byOp {
		var a *opAgg
		for _, s := range group {
			switch s.Kind {
			case spOpWrite:
				a = &agg.write
			case spOpRead:
				a = &agg.read
			}
		}
		if a == nil {
			continue // the operation failed; its calls are not accounted
		}
		a.n++
		var children []interval
		var perKind [nSpanKinds][]interval
		for _, s := range group {
			d := s.End - s.Start
			switch s.Kind {
			case spOpWrite, spOpRead:
				a.opNs += d
			case spCoreWrite, spCoreRead:
				a.coreNs += d
				a.extents += s.Bytes
				a.hasCoreSpn = true
			default:
				a.sumNs[s.Kind] += d
				a.count[s.Kind]++
				a.bytes[s.Kind] += s.Bytes
				children = append(children, interval{s.Start, s.End})
				perKind[s.Kind] = append(perKind[s.Kind], interval{s.Start, s.End})
			}
		}
		a.childNs += unionNs(children)
		for k, iv := range perKind {
			a.unionNs[k] += unionNs(iv)
		}
	}
	return agg
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path, workload string, segment int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		err = enc.Encode(map[string]any{
			"workload": workload, "segment": segment, "name": spanNames[s.Kind],
			"rank": s.Rank, "parent_op": s.Op, "start_ns": s.Start, "end_ns": s.End, "n": s.Bytes,
		})
		if err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
