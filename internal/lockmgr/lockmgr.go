// Package lockmgr implements the distributed lock manager used by the
// locking-based baselines: byte-range (extent) locks with FIFO
// fairness, as provided by parallel file systems such as Lustre's LDLM
// or GPFS's token manager. The paper's Related Work section describes
// three ways MPI-I/O layers use such locks to implement atomicity —
// whole-file locking, bounding-range locking, and conflict-detection —
// all of which are built on this manager (see internal/mpiio).
//
// Every acquire and release is charged a simulated RPC cost, and the
// manager records how long requests wait; lock wait time is the
// quantity the paper's versioning design eliminates.
package lockmgr

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extent"
	"repro/internal/iosim"
)

// WholeFile is the extent that covers any possible byte range; locking
// it serializes all access to the file.
var WholeFile = extent.Extent{Offset: 0, Length: math.MaxInt64}

// Mode distinguishes shared (read) from exclusive (write) locks. Two
// shared locks on overlapping ranges are compatible; any pairing
// involving an exclusive lock conflicts.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "shared"
	}
	return "exclusive"
}

// Manager is a byte-range lock manager for one shared resource (one
// file). It grants locks in FIFO order among conflicting requests,
// preventing starvation. Safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	cond    *sync.Cond
	held    map[uint64]*waiter // grant id → locked range and mode
	pending []*waiter
	nextID  uint64

	meter *iosim.Meter

	acquires  atomic.Int64
	waitNanos atomic.Int64
	maxQueue  atomic.Int64
}

type waiter struct {
	id   uint64
	l    extent.List // one or more disjoint ranges, granted atomically
	mode Mode
}

// conflicts reports whether two requests are incompatible.
func conflicts(a, b *waiter) bool {
	if !a.l.Overlaps(b.l) {
		return false
	}
	return a.mode == Exclusive || b.mode == Exclusive
}

// New builds a manager whose acquire/release requests are charged the
// given cost model (zero model for unit tests).
func New(model iosim.CostModel) *Manager {
	m := &Manager{held: make(map[uint64]*waiter)}
	m.cond = sync.NewCond(&m.mu)
	m.meter = iosim.NewMeter(model, false)
	return m
}

// Grant represents a held lock; Release returns it. A grant covering a
// multi-range list charges one unlock RPC per range on release,
// mirroring the per-extent charges of its acquisition.
type Grant struct {
	m     *Manager
	id    uint64
	units int // ranges covered; one unlock RPC each

	released bool
}

// Acquire blocks until the byte range can be locked in the given mode
// and returns the grant. Requests are served FIFO among conflicting
// requests.
func (m *Manager) Acquire(e extent.Extent, mode Mode) *Grant {
	m.meter.Charge(0) // lock-request RPC
	return m.acquire(extent.List{e}, mode)
}

// acquire queues one (possibly multi-range) waiter and blocks until the
// whole request is grantable at once; the caller has already charged
// the request RPCs.
func (m *Manager) acquire(l extent.List, mode Mode) *Grant {
	start := time.Now()
	m.mu.Lock()
	w := &waiter{id: m.nextID, l: l, mode: mode}
	m.nextID++
	m.pending = append(m.pending, w)
	if q := int64(len(m.pending)); q > m.maxQueue.Load() {
		m.maxQueue.Store(q)
	}
	for !m.grantable(w) {
		m.cond.Wait()
	}
	// Remove w from pending, move to held.
	for i, p := range m.pending {
		if p == w {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.held[w.id] = w
	m.mu.Unlock()
	m.acquires.Add(1)
	m.waitNanos.Add(int64(time.Since(start)))
	return &Grant{m: m, id: w.id, units: len(l)}
}

// AcquireList locks every extent of the (normalized) list, charging one
// lock-request RPC per extent but granting the list atomically: the
// request waits until every range is free and then takes them all at
// once. All-or-nothing granting is what makes concurrent list
// acquisitions deadlock-free — incremental acquisition (even in
// ascending order) deadlocks against this manager's FIFO fairness,
// because a request queued behind a conflicting pending request waits
// on a waiter, not a holder: writer A holding X1 and queueing for X2
// behind B's pending request deadlocks when B's request waits on X1.
// The returned grants must all be released.
func (m *Manager) AcquireList(l extent.List, mode Mode) []*Grant {
	norm := l.Normalize()
	if len(norm) == 0 {
		return nil
	}
	for range norm {
		m.meter.Charge(0) // one lock-request RPC per extent
	}
	return []*Grant{m.acquire(norm, mode)}
}

// grantable reports whether w conflicts with no held lock and no
// earlier pending request. Callers hold m.mu.
func (m *Manager) grantable(w *waiter) bool {
	for _, h := range m.held {
		if conflicts(h, w) {
			return false
		}
	}
	for _, p := range m.pending {
		if p.id >= w.id {
			continue
		}
		if conflicts(p, w) {
			return false
		}
	}
	return true
}

// Release frees the grant. Releasing twice is a no-op.
func (g *Grant) Release() {
	if g.released {
		return
	}
	g.released = true
	for i := 0; i < g.units; i++ {
		g.m.meter.Charge(0) // unlock RPC per locked range
	}
	g.m.mu.Lock()
	delete(g.m.held, g.id)
	g.m.cond.Broadcast()
	g.m.mu.Unlock()
}

// ReleaseAll releases a slice of grants (in reverse order, as 2PL
// convention suggests, though order does not matter for correctness).
func ReleaseAll(grants []*Grant) {
	for i := len(grants) - 1; i >= 0; i-- {
		grants[i].Release()
	}
}

// Stats is a snapshot of lock-manager counters.
type Stats struct {
	Acquires  int64
	TotalWait time.Duration
	MaxQueue  int64
}

// Stats returns cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquires:  m.acquires.Load(),
		TotalWait: time.Duration(m.waitNanos.Load()),
		MaxQueue:  m.maxQueue.Load(),
	}
}
