// Package vmanager implements the version manager, the serialization
// point of the versioning storage backend. It assigns write tickets,
// answers the borrow queries writers need to build shadowed metadata
// without synchronizing with each other, and publishes snapshots
// strictly in ticket order so that every published snapshot is
// equivalent to a serial application of whole write calls — the MPI
// atomicity guarantee.
//
// The manager performs no data I/O: its critical sections are short and
// in-memory, which is why it does not become the bottleneck the way
// data-path locking does in the baseline.
//
// # Group commit
//
// At very high request rates the per-request control round trip itself
// becomes the limit, so the manager supports group commit (see
// batch.go): concurrent AssignTicket and Complete/Abort callers are
// combined into groups that are applied under one lock acquisition,
// one metered control round trip, and — for publication — one
// condition-variable broadcast. SetBatching configures the knobs
// (MaxBatch bounds the group size, MaxDelay bounds how long the group
// leader lingers for the group to fill). Every ticket and every
// completion goes through the same commit core; at the default
// MaxBatch of 1 each request is a group of one, applied on the
// caller's goroutine. Batching never weakens the contract: requests in
// a group are applied in queue order, so borrow answers still reflect
// exactly the tickets assigned before each request, and snapshots still
// publish strictly in ticket order.
//
// # Version lifecycle
//
// Published snapshots are retained by default but no longer immortal:
// a retention policy (Retain, DropVersion) moves old versions into a
// dropped state, readers can Pin the snapshot they are using to
// protect it, and a garbage collector drains the pending-drop set by
// deleting the chunks only dropped versions reference (GCInfo,
// MarkReclaimed). See lifecycle.go for the state machine and its
// protections.
package vmanager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

// Common errors.
var (
	ErrUnknownBlob    = errors.New("vmanager: unknown blob")
	ErrBlobExists     = errors.New("vmanager: blob already exists")
	ErrEmptyWrite     = errors.New("vmanager: empty extent list")
	ErrUnknownVersion = errors.New("vmanager: unknown or unpublished version")
	ErrDoubleComplete = errors.New("vmanager: version completed twice")
	// ErrShardDown is returned by every operation while the manager is
	// killed (see Kill/Restart and the Sharded router): the in-process
	// equivalent of the server being unreachable. Because a killed
	// manager fails requests before applying them — and a group
	// interrupted mid-application is rolled back — ErrShardDown always
	// means "definitely not committed".
	ErrShardDown = errors.New("vmanager: shard down")
)

// Ticket is the response to a write-ticket request: the assigned
// version and the borrow answers (tree range → latest prior version
// touching it, 0 if never written) the writer needs to build metadata.
type Ticket struct {
	Version uint64
	Borrows map[extent.Extent]uint64
}

// SnapshotInfo describes one published snapshot.
type SnapshotInfo struct {
	Version uint64
	Root    segtree.NodeKey
	Size    int64
}

type blobState struct {
	geo  segtree.Geometry
	next uint64 // next ticket to assign
	vmap *pageTree

	sizes     map[uint64]int64           // ticket → snapshot size (fixed at assignment)
	roots     map[uint64]segtree.NodeKey // completed ticket → root
	completed map[uint64]bool
	aborted   map[uint64]bool
	published uint64
	cond      *sync.Cond // signalled when published advances

	// Version lifecycle (see lifecycle.go): dropped versions are no
	// longer readable, pending ones await chunk reclamation, pinned
	// ones are protected from retention.
	dropped   map[uint64]bool
	pending   map[uint64]bool
	pins      map[uint64]int
	reclaimed uint64

	// assigned records the wall-clock ticket-assignment time per
	// in-flight version, populated only when metrics are wired (entries
	// are deleted at publication, so the map stays bounded by the
	// in-flight window).
	assigned map[uint64]time.Time

	// undo holds, per in-flight ticket, the vmap stamp runs the ticket
	// over-wrote at assignment. An abort restores them (where the
	// ticket is still the top stamper), so later borrow queries never
	// reference the aborted write's metadata; a commit discards them.
	// Bounded by the in-flight window like assigned.
	undo map[uint64][]stampRun
}

// publishReady advances the published watermark over every completed
// version, resolving aborted versions to their predecessor's root so
// they become empty snapshots. Callers hold m.mu; the manager is passed
// in so each publication is counted and timed (assignment →
// publication) against its metrics.
func (st *blobState) publishReady(m *Manager) bool {
	advanced := false
	for st.completed[st.published+1] {
		v := st.published + 1
		if st.aborted[v] {
			st.roots[v] = st.roots[v-1]
			st.sizes[v] = st.sizes[v-1]
		}
		st.published = v
		advanced = true
		m.met.publishTotal.Inc()
		if t, ok := st.assigned[v]; ok {
			m.met.publishSec.ObserveSince(t)
			delete(st.assigned, v)
		}
	}
	return advanced
}

// Crashpoint is a test seam for killing a manager mid-group: it is
// invoked under the manager lock before each request application of a
// Complete/Abort group — a group of one at MaxBatch <= 1 — and once
// more after the last, with the whole group and the count of requests
// applied so far. Returning true rolls back the group's applied prefix,
// marks the manager down, and fails every request in the group with
// ErrShardDown — the group is atomically absent, never torn.
type Crashpoint func(batch []PublishRequest, applied int) bool

// Manager is the version manager service. Safe for concurrent use.
type Manager struct {
	mu    sync.Mutex
	blobs map[uint64]*blobState
	meter *iosim.Meter

	// down marks the manager administratively dead (Kill): every
	// operation fails with ErrShardDown until Restart. crash is the
	// optional mid-group kill seam; both are guarded by mu.
	down  bool
	crash Crashpoint

	batchMu sync.Mutex
	batch   BatchConfig
	tickets *combiner[ticketReq, Ticket]
	commits *combiner[PublishRequest, struct{}]

	// met holds nil-tolerant metric handles; all remain nil until
	// SetMetrics, so an un-wired manager pays only nil checks.
	met struct {
		ticketTotal  *metrics.Counter
		commitTotal  *metrics.Counter
		abortTotal   *metrics.Counter
		publishTotal *metrics.Counter
		ticketSec    *metrics.Histogram
		commitSec    *metrics.Histogram
		publishSec   *metrics.Histogram
	}
}

// SetMetrics wires the manager's counters and latency histograms into
// reg: ticket/commit/abort/publish counts, AssignTicket and Complete
// wall-clock latency (including group-commit queueing), and the
// assignment-to-publication latency per version. Call before serving
// traffic; a nil registry leaves metrics disabled.
// Optional labels distinguish the series when several managers share a
// registry — the Sharded router passes shard=<i> so each shard's
// counters stay separate without renaming the bs_vm_* family.
func (m *Manager) SetMetrics(reg *metrics.Registry, labels ...metrics.Label) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.ticketTotal = reg.Counter("bs_vm_ticket_total", labels...)
	m.met.commitTotal = reg.Counter("bs_vm_commit_total", labels...)
	m.met.abortTotal = reg.Counter("bs_vm_abort_total", labels...)
	m.met.publishTotal = reg.Counter("bs_vm_publish_total", labels...)
	m.met.ticketSec = reg.Histogram("bs_vm_ticket_seconds", nil, labels...)
	m.met.commitSec = reg.Histogram("bs_vm_commit_seconds", nil, labels...)
	m.met.publishSec = reg.Histogram("bs_vm_publish_seconds", nil, labels...)
}

// New creates a manager charged with the given cost model per request
// (use the zero model in unit tests). The manager is a single control
// server, so its meter is exclusive: concurrent control requests queue
// in virtual time, which is exactly the serialization group commit
// amortizes.
func New(model iosim.CostModel) *Manager {
	m := &Manager{
		blobs: make(map[uint64]*blobState),
		meter: iosim.NewMeter(model, true),
	}
	m.tickets = newCombiner(m.applyTickets)
	m.commits = newCombiner(m.applyPublish)
	return m
}

// Meter exposes the request meter.
func (m *Manager) Meter() *iosim.Meter { return m.meter }

// admit is the manager's one admission rule: a request is charged one
// metered control round trip (unless charge is false — Geometry and
// Versions are free), takes the lock, and is refused with ErrShardDown
// while the manager is killed. It returns holding m.mu, or with the
// lock released on error.
func (m *Manager) admit(charge bool) error {
	if charge {
		m.meter.Charge(0)
	}
	m.mu.Lock()
	if m.down {
		m.mu.Unlock()
		return ErrShardDown
	}
	return nil
}

// admitBlob is admit for a request naming one blob, which must be
// registered. It returns the blob's state holding m.mu, or with the
// lock released on error.
func (m *Manager) admitBlob(blob uint64, charge bool) (*blobState, error) {
	if err := m.admit(charge); err != nil {
		return nil, err
	}
	st, err := m.blobLocked(blob)
	if err != nil {
		m.mu.Unlock()
	}
	return st, err
}

// blobLocked looks a registered blob up; callers hold m.mu.
func (m *Manager) blobLocked(blob uint64) (*blobState, error) {
	st, ok := m.blobs[blob]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownBlob, blob)
	}
	return st, nil
}

// CreateBlob registers a blob with the given tree geometry. Version 0
// is the implicit empty snapshot.
func (m *Manager) CreateBlob(blob uint64, geo segtree.Geometry) error {
	if err := geo.Validate(); err != nil {
		return err
	}
	if err := m.admit(true); err != nil {
		return err
	}
	defer m.mu.Unlock()
	if _, dup := m.blobs[blob]; dup {
		return fmt.Errorf("%w: %d", ErrBlobExists, blob)
	}
	st := &blobState{
		geo:       geo,
		next:      1,
		vmap:      newPageTree(geo.Capacity / geo.Page),
		sizes:     map[uint64]int64{0: 0},
		roots:     map[uint64]segtree.NodeKey{0: {}},
		completed: map[uint64]bool{0: true},
		aborted:   map[uint64]bool{},
		dropped:   map[uint64]bool{},
		pending:   map[uint64]bool{},
		pins:      map[uint64]int{},
		assigned:  map[uint64]time.Time{},
		undo:      map[uint64][]stampRun{},
	}
	st.cond = sync.NewCond(&m.mu)
	m.blobs[blob] = st
	return nil
}

// Geometry returns the blob's tree geometry.
func (m *Manager) Geometry(blob uint64) (segtree.Geometry, error) {
	st, err := m.admitBlob(blob, false)
	if err != nil {
		return segtree.Geometry{}, err
	}
	defer m.mu.Unlock()
	return st.geo, nil
}

// AssignTicket reserves the next version for a write covering the given
// extents and computes its borrow answers atomically, so the answers
// reflect exactly the tickets < the assigned one. This is the only
// globally serialized step of a write and involves no I/O. With
// batching enabled, concurrent callers are group-committed: the whole
// group is assigned a contiguous ticket range under one lock
// acquisition and one metered control round trip.
func (m *Manager) AssignTicket(blob uint64, e extent.List) (Ticket, error) {
	e = e.Normalize()
	if len(e) == 0 {
		return Ticket{}, ErrEmptyWrite
	}
	if h := m.met.ticketSec; h != nil {
		defer h.ObserveSince(time.Now())
	}
	return m.tickets.do(ticketReq{blob: blob, ext: e}, m.Batching())
}

// assignTicketLocked is the lock-held core of AssignTicket; extents
// must already be normalized.
func (m *Manager) assignTicketLocked(blob uint64, e extent.List) (Ticket, error) {
	if len(e) == 0 {
		return Ticket{}, ErrEmptyWrite
	}
	st, err := m.blobLocked(blob)
	if err != nil {
		return Ticket{}, err
	}
	if b := e.Bounding(); b.End() > st.geo.Capacity {
		return Ticket{}, fmt.Errorf("%w: write %v beyond capacity %d", segtree.ErrOutOfRange, b, st.geo.Capacity)
	}
	v := st.next
	st.next++
	page := st.geo.Page
	borrows := make(map[extent.Extent]uint64)
	for _, r := range st.geo.Borrows(e) {
		// Geometry ranges are page-aligned, so page granularity is
		// exact here.
		if w := st.vmap.query(r.Offset/page, r.End()/page); w != 0 {
			borrows[r] = w
		}
	}
	// Capture the stamp runs this write is about to overwrite, so an
	// abort can restore them (clamping lo to the previous extent's hi:
	// adjacent normalized extents can round outward onto a shared
	// boundary page, which must not be captured twice).
	var undo []stampRun
	prevHi := int64(-1)
	for _, x := range e {
		lo, hi := x.Offset/page, (x.End()+page-1)/page
		if lo < prevHi {
			lo = prevHi
		}
		if hi > lo {
			undo = append(undo, st.vmap.runs(lo, hi)...)
			prevHi = hi
		}
	}
	st.undo[v] = undo
	for _, x := range e {
		// Stamp every page the write touches (ends rounded outward).
		st.vmap.stamp(x.Offset/page, (x.End()+page-1)/page, v)
	}
	// Snapshot size is fixed at ticket time: the size after applying
	// writes 1..v in order.
	prev := st.sizes[v-1]
	size := prev
	if end := e.Bounding().End(); end > size {
		size = end
	}
	st.sizes[v] = size
	m.met.ticketTotal.Inc()
	if m.met.publishSec != nil {
		st.assigned[v] = time.Now()
	}
	return Ticket{Version: v, Borrows: borrows}, nil
}

// Complete records that the metadata of version v is fully stored with
// the given root, then publishes every ready version in ticket order.
// With batching enabled, concurrent Complete/Abort callers are
// group-committed: the whole group is applied under one lock
// acquisition and the resulting publications happen with one broadcast.
func (m *Manager) Complete(blob, v uint64, root segtree.NodeKey) error {
	if h := m.met.commitSec; h != nil {
		defer h.ObserveSince(time.Now())
	}
	_, err := m.commits.do(PublishRequest{Blob: blob, Version: v, Root: root}, m.Batching())
	return err
}

// completeLocked marks a request's version completed (or aborted)
// without publishing; the caller decides when to run publishReady so a
// group of completions publishes with a single broadcast.
func (m *Manager) completeLocked(r PublishRequest) error {
	st, err := m.blobLocked(r.Blob)
	if err != nil {
		return err
	}
	if r.Version == 0 || r.Version >= st.next {
		verb := "complete"
		if r.Abort {
			verb = "abort"
		}
		return fmt.Errorf("vmanager: %s of unassigned version %d", verb, r.Version)
	}
	if st.completed[r.Version] {
		return fmt.Errorf("%w: %d", ErrDoubleComplete, r.Version)
	}
	st.completed[r.Version] = true
	if r.Abort {
		st.aborted[r.Version] = true
	} else {
		st.roots[r.Version] = r.Root
	}
	return nil
}

// finishLocked runs the post-completion bookkeeping completeLocked
// leaves out so applyPublish can roll back an applied prefix before
// any of it happens: the commit/abort counter bump, and the undo-run
// handling — an abort restores the vmap stamps the aborted ticket
// over-wrote (so later borrows skip it), a commit discards them.
func (m *Manager) finishLocked(st *blobState, v uint64, abort bool) {
	if abort {
		for _, r := range st.undo[v] {
			st.vmap.restoreWhere(r.Lo, r.Hi, v, r.V)
		}
		m.met.abortTotal.Inc()
	} else {
		m.met.commitTotal.Inc()
	}
	delete(st.undo, v)
}

// Abort gives up a ticket whose write failed after assignment. The
// version publishes as an empty snapshot (identical to its
// predecessor), so later tickets are not blocked behind a dead writer.
// Note the size watermark fixed at assignment time is rolled back for
// the aborted version itself but later snapshots keep the monotone
// watermark — unwritten bytes read as zero holes, as with sparse
// POSIX files. An abort is a Complete with Abort set: it takes the same
// path through the commit core.
//
// A failed write retires its ticket with a tombstone instead, and the
// client aborts only when the metadata service refuses the tombstone
// too (blob.retireTicket): when it refused the write's whole node list,
// or when that list failed partway and left some of its nodes stored.
// That is the residual: tickets assigned after the abort borrow past the
// aborted version, but one assigned before it may hold borrow answers
// naming nodes of the aborted version that were never stored — its reads
// of those ranges fail — or that the partial list did store, and then it
// reads part of the failed write.
func (m *Manager) Abort(blob, v uint64) error {
	_, err := m.commits.do(PublishRequest{Blob: blob, Version: v, Abort: true}, m.Batching())
	return err
}

// WaitPublished blocks until version v of the blob is published. If the
// manager is killed while waiting, it returns ErrShardDown — but a
// version that already published is reported as published even on a
// down manager, preserving "ErrShardDown means not committed".
func (m *Manager) WaitPublished(blob, v uint64) error {
	m.meter.Charge(0)
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.blobLocked(blob)
	if err != nil {
		return err
	}
	if v >= st.next {
		return fmt.Errorf("vmanager: waiting for unassigned version %d", v)
	}
	for st.published < v {
		if m.down {
			return ErrShardDown
		}
		st.cond.Wait()
	}
	return nil
}

// LatestPublished returns the newest published snapshot.
func (m *Manager) LatestPublished(blob uint64) (SnapshotInfo, error) {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer m.mu.Unlock()
	return SnapshotInfo{Version: st.published, Root: st.roots[st.published], Size: st.sizes[st.published]}, nil
}

// Snapshot returns a published snapshot by version.
func (m *Manager) Snapshot(blob, v uint64) (SnapshotInfo, error) {
	st, err := m.admitBlob(blob, true)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer m.mu.Unlock()
	if v > st.published {
		return SnapshotInfo{}, fmt.Errorf("%w: %d (published %d)", ErrUnknownVersion, v, st.published)
	}
	if st.dropped[v] {
		return SnapshotInfo{}, fmt.Errorf("%w: %d", ErrVersionDropped, v)
	}
	return SnapshotInfo{Version: v, Root: st.roots[v], Size: st.sizes[v]}, nil
}

// Versions returns all retained published versions in order, including
// the empty snapshot 0. Versions dropped by the retention policy are
// excluded — readers, the scrubber and repair all iterate this, so a
// drop removes a version from every consumer at once.
func (m *Manager) Versions(blob uint64) ([]uint64, error) {
	st, err := m.admitBlob(blob, false)
	if err != nil {
		return nil, err
	}
	defer m.mu.Unlock()
	out := make([]uint64, 0, st.published+1)
	for v := uint64(0); v <= st.published; v++ {
		if !st.dropped[v] {
			out = append(out, v)
		}
	}
	return out, nil
}

// Blobs returns the IDs of all registered blobs.
func (m *Manager) Blobs() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.blobs))
	for id := range m.blobs {
		out = append(out, id)
	}
	return out
}

// VersionRef names one version of one blob; Restart reports the
// versions it recovery-aborted as refs.
type VersionRef struct {
	Blob    uint64
	Version uint64
}

// ShardStatus is the operator-visible state of one manager (shard):
// reported by the manager itself, aggregated by the Sharded router, and
// surfaced over RPC for bsctl.
type ShardStatus struct {
	Index     int    // position in the shard set (0 for a lone manager)
	Down      bool   // killed and not yet restarted
	Blobs     int    // blobs owned by this shard
	Tickets   uint64 // tickets assigned across those blobs
	Published uint64 // versions published across those blobs
}

// SetCrashpoint installs (or, with nil, removes) the mid-group kill
// seam. Test-only; see Crashpoint.
func (m *Manager) SetCrashpoint(cp Crashpoint) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crash = cp
}

// Down reports whether the manager is killed.
func (m *Manager) Down() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.down
}

// Kill marks the manager down: every subsequent operation fails with
// ErrShardDown until Restart, and every blocked WaitPublished waiter is
// woken to observe the death. State already committed is retained —
// kill models a crash of the serving process, not data loss.
// Kept as a test seam (a crash): only TestWaitPublishedWakesOnKill and
// TestWaitPublishedWakesOnRestartRecovery call it; the sharded manager
// kills a shard through Sharded.Kill.
func (m *Manager) Kill() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.killLocked()
}

func (m *Manager) killLocked() {
	m.down = true
	for _, st := range m.blobs {
		st.cond.Broadcast()
	}
}

// Restart brings a killed manager back. Every ticket that was assigned
// but not completed at kill time is recovery-aborted — its writer is
// gone, and ErrShardDown promised it did not commit — so the publish
// watermark advances over the dead window and new writes proceed
// immediately. Returns the versions aborted this way, in order, so
// callers (and the shard-kill torture suite) can check every in-flight
// ticket was observably aborted rather than left torn.
func (m *Manager) Restart() []VersionRef {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.down {
		return nil
	}
	m.down = false
	var aborted []VersionRef
	for id, st := range m.blobs {
		for v := st.published + 1; v < st.next; v++ {
			if st.completed[v] {
				continue
			}
			st.completed[v] = true
			st.aborted[v] = true
			m.finishLocked(st, v, true)
			aborted = append(aborted, VersionRef{Blob: id, Version: v})
		}
		if st.publishReady(m) {
			st.cond.Broadcast()
		}
	}
	sort.Slice(aborted, func(i, j int) bool {
		if aborted[i].Blob != aborted[j].Blob {
			return aborted[i].Blob < aborted[j].Blob
		}
		return aborted[i].Version < aborted[j].Version
	})
	return aborted
}

// Status reports the manager's shard status, with the given index.
func (m *Manager) Status(index int) ShardStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := ShardStatus{Index: index, Down: m.down, Blobs: len(m.blobs)}
	for _, st := range m.blobs {
		s.Tickets += st.next - 1
		s.Published += st.published
	}
	return s
}

// ShardStatuses reports the manager as a one-shard control plane,
// matching the Sharded router's method of the same name.
func (m *Manager) ShardStatuses() []ShardStatus {
	return []ShardStatus{m.Status(0)}
}
