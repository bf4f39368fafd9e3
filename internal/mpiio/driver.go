// Package mpiio implements the MPI-I/O layer (the ROMIO role in the
// paper): file views built from derived datatypes, independent and
// collective (two-phase) I/O, MPI atomic mode, and the ADIO-style
// driver abstraction with two backends — the paper's versioning
// storage backend, where MPI atomicity is native, and the Lustre-like
// locking file system, where atomicity must be layered on top with one
// of the locking strategies from the paper's Related Work section.
package mpiio

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/lockfs"
	"repro/internal/lockmgr"
)

// Driver is the ADIO-style backend interface: everything the MPI-I/O
// layer needs from a storage backend, expressed as List I/O.
type Driver interface {
	// WriteList writes a vector of extents; when atomic is set the
	// whole vector must be applied as one MPI-atomic transaction.
	WriteList(vec extent.Vec, atomic bool) error
	// ReadList reads a vector of extents; when atomic is set the read
	// must observe a state produced by whole write calls.
	ReadList(q extent.List, atomic bool) ([]byte, error)
}

// VersioningDriver adapts the paper's storage backend (internal/core)
// to the ADIO interface. Because the backend provides MPI atomicity
// natively, no consistency-model translation happens here — exactly
// the point of the paper's "dedicated API" design principle.
type VersioningDriver struct {
	Backend core.Backend
}

var _ Driver = (*VersioningDriver)(nil)

// WriteList implements Driver. The backend's writes are always atomic;
// the flag costs nothing either way.
func (d *VersioningDriver) WriteList(vec extent.Vec, _ bool) error {
	_, err := d.Backend.WriteList(vec)
	return err
}

// ReadList implements Driver.
func (d *VersioningDriver) ReadList(q extent.List, _ bool) ([]byte, error) {
	data, _, err := d.Backend.ReadList(q)
	return data, err
}

// Strategy selects how the locking driver layers MPI atomicity over
// POSIX semantics. These are the approaches the paper's Related Work
// describes.
type Strategy int

// Strategies.
const (
	// StrategyPOSIX performs no MPI-level coordination: each extent is
	// written as an independent POSIX-atomic call. It does NOT provide
	// MPI atomicity for non-contiguous operations and exists as the
	// inconsistent baseline (and upper bound for locking throughput).
	StrategyPOSIX Strategy = iota
	// StrategyWholeFile locks the entire file for each operation
	// (Ross et al. 2005, "Implementing MPI-IO atomic mode without file
	// system support").
	StrategyWholeFile
	// StrategyBoundingRange locks the smallest contiguous byte range
	// covering all extents of the operation — the default scheme on
	// POSIX parallel file systems such as Lustre/GPFS that the paper
	// describes as locking "unaccessed data that would not need to be
	// locked".
	StrategyBoundingRange
	// StrategyListLock takes one extent lock per accessed range in
	// ascending order (two-phase locking). Precise but pays one lock
	// round trip per extent.
	StrategyListLock
	// StrategyConflictDetect implements Sehrish et al. 2009: operations
	// announce their extent lists to a detector; non-overlapping
	// operations proceed without locks, overlapping ones serialize.
	StrategyConflictDetect
	// StrategyDataSieve is ROMIO's data sieving under a bounding-range
	// lock: read the whole bounding range, scatter the pieces into the
	// buffer, write the whole range back. Two large transfers replace
	// many small ones, at the price of moving (and locking) all the
	// unaccessed bytes in between.
	StrategyDataSieve
)

// String names the strategy for benchmark tables.
func (s Strategy) String() string {
	switch s {
	case StrategyPOSIX:
		return "posix"
	case StrategyWholeFile:
		return "wholefile"
	case StrategyBoundingRange:
		return "boundingrange"
	case StrategyListLock:
		return "listlock"
	case StrategyConflictDetect:
		return "conflictdetect"
	case StrategyDataSieve:
		return "datasieve"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Detector implements the conflict-detection protocol: an operation
// registers its extent list; if it overlaps any in-flight operation it
// waits for those to drain. Registration alone (without byte-range
// locks) then guarantees exclusion, so non-overlapping workloads run
// fully in parallel at the cost of two detector round trips per
// operation.
type Detector struct {
	mu     sync.Mutex
	cond   *sync.Cond
	active map[uint64]extent.List
	nextID uint64
	meter  *iosim.Meter

	// ScanPerPeer charges each Begin for comparing against every
	// concurrently registered operation, modelling the extent-list
	// exchange the protocol performs among processes (Sehrish et al.
	// gather the access patterns of all concurrent operations). Zero
	// disables the charge.
	ScanPerPeer time.Duration

	ops       atomic.Int64
	conflicts atomic.Int64
}

// NewDetector builds a detector charged per request with the given
// model.
func NewDetector(model iosim.CostModel) *Detector {
	d := &Detector{active: make(map[uint64]extent.List)}
	d.cond = sync.NewCond(&d.mu)
	d.meter = iosim.NewMeter(model, false)
	return d
}

// Begin registers the operation, waiting first for every conflicting
// in-flight operation to end. It returns the registration id and
// whether a conflict was encountered.
func (d *Detector) Begin(l extent.List) (uint64, bool) {
	d.meter.Charge(0)
	if d.ScanPerPeer > 0 {
		d.mu.Lock()
		peers := len(d.active)
		d.mu.Unlock()
		if peers > 0 {
			d.meter.ChargeDuration(time.Duration(peers) * d.ScanPerPeer)
		}
	}
	norm := l.Normalize()
	d.mu.Lock()
	conflicted := false
	for d.overlapsActive(norm) {
		conflicted = true
		d.cond.Wait()
	}
	id := d.nextID
	d.nextID++
	d.active[id] = norm
	d.mu.Unlock()
	d.ops.Add(1)
	if conflicted {
		d.conflicts.Add(1)
	}
	return id, conflicted
}

// End deregisters the operation.
func (d *Detector) End(id uint64) {
	d.meter.Charge(0)
	d.mu.Lock()
	delete(d.active, id)
	d.cond.Broadcast()
	d.mu.Unlock()
}

func (d *Detector) overlapsActive(l extent.List) bool {
	for _, a := range d.active {
		if l.Overlaps(a) {
			return true
		}
	}
	return false
}

// DetectorStats reports detector counters.
type DetectorStats struct {
	Ops       int64
	Conflicts int64
}

// Stats returns cumulative counters.
func (d *Detector) Stats() DetectorStats {
	return DetectorStats{Ops: d.ops.Load(), Conflicts: d.conflicts.Load()}
}

// LockFSDriver adapts the Lustre-like file system to the ADIO
// interface, implementing MPI atomicity with the configured locking
// strategy. This is the baseline the paper evaluates against.
type LockFSDriver struct {
	File     *lockfs.File
	Strategy Strategy
	// Det is required for StrategyConflictDetect; one detector is
	// shared by all processes opening the same file.
	Det *Detector
}

var _ Driver = (*LockFSDriver)(nil)

// WriteList implements Driver.
func (d *LockFSDriver) WriteList(vec extent.Vec, atomicMode bool) error {
	if !atomicMode {
		// Non-atomic mode: each extent is an independent POSIX write.
		return vec.ForEach(func(e extent.Extent, b []byte) error {
			return d.File.WriteAt(e.Offset, b)
		})
	}
	switch d.Strategy {
	case StrategyPOSIX:
		return vec.ForEach(func(e extent.Extent, b []byte) error {
			return d.File.WriteAt(e.Offset, b)
		})
	case StrategyWholeFile:
		g := d.File.LockManager().Acquire(lockmgr.WholeFile, lockmgr.Exclusive)
		defer g.Release()
		return d.writeLocked(vec)
	case StrategyBoundingRange:
		g := d.File.LockManager().Acquire(vec.Extents.Bounding(), lockmgr.Exclusive)
		defer g.Release()
		return d.writeLocked(vec)
	case StrategyListLock:
		grants := d.File.LockManager().AcquireList(vec.Extents, lockmgr.Exclusive)
		defer lockmgr.ReleaseAll(grants)
		return d.writeLocked(vec)
	case StrategyConflictDetect:
		if d.Det == nil {
			return fmt.Errorf("mpiio: %s requires a detector", d.Strategy)
		}
		id, _ := d.Det.Begin(vec.Extents)
		defer d.Det.End(id)
		return d.writeLocked(vec)
	case StrategyDataSieve:
		g := d.File.LockManager().Acquire(vec.Extents.Bounding(), lockmgr.Exclusive)
		defer g.Release()
		return d.writeSieved(vec)
	default:
		return fmt.Errorf("mpiio: unknown strategy %v", d.Strategy)
	}
}

// writeSieved performs one read-modify-write of the bounding range;
// the caller holds the bounding lock.
func (d *LockFSDriver) writeSieved(vec extent.Vec) error {
	bound := vec.Extents.Bounding()
	if bound.Empty() {
		return nil
	}
	image, err := d.File.ReadAtLocked(bound.Offset, bound.Length)
	if err != nil {
		return err
	}
	vec.ScatterInto(image, bound.Offset)
	return d.File.WriteAtLocked(bound.Offset, image)
}

// writeLocked writes every extent without further locking; the caller
// holds whatever exclusion the strategy mandates.
func (d *LockFSDriver) writeLocked(vec extent.Vec) error {
	return vec.ForEach(func(e extent.Extent, b []byte) error {
		return d.File.WriteAtLocked(e.Offset, b)
	})
}

// ReadList implements Driver.
func (d *LockFSDriver) ReadList(q extent.List, atomicMode bool) ([]byte, error) {
	if !atomicMode || d.Strategy == StrategyPOSIX {
		return d.readEach(q, true)
	}
	switch d.Strategy {
	case StrategyWholeFile:
		g := d.File.LockManager().Acquire(lockmgr.WholeFile, lockmgr.Shared)
		defer g.Release()
		return d.readEach(q, false)
	case StrategyBoundingRange:
		g := d.File.LockManager().Acquire(q.Bounding(), lockmgr.Shared)
		defer g.Release()
		return d.readEach(q, false)
	case StrategyListLock:
		grants := d.File.LockManager().AcquireList(q, lockmgr.Shared)
		defer lockmgr.ReleaseAll(grants)
		return d.readEach(q, false)
	case StrategyConflictDetect:
		if d.Det == nil {
			return nil, fmt.Errorf("mpiio: %s requires a detector", d.Strategy)
		}
		id, _ := d.Det.Begin(q)
		defer d.Det.End(id)
		return d.readEach(q, false)
	case StrategyDataSieve:
		g := d.File.LockManager().Acquire(q.Bounding(), lockmgr.Shared)
		defer g.Release()
		bound := q.Bounding()
		image, err := d.File.ReadAtLocked(bound.Offset, bound.Length)
		if err != nil {
			return nil, err
		}
		out := make([]byte, q.TotalLength())
		gather := extent.Vec{Extents: q, Buf: out}
		gather.GatherFrom(image, bound.Offset)
		return out, nil
	default:
		return nil, fmt.Errorf("mpiio: unknown strategy %v", d.Strategy)
	}
}

// readEach reads every extent; when locked is true each read takes its
// own POSIX lock, otherwise the caller already holds coverage.
func (d *LockFSDriver) readEach(q extent.List, locked bool) ([]byte, error) {
	out := make([]byte, q.TotalLength())
	var start int64
	for _, e := range q {
		var data []byte
		var err error
		if locked {
			data, err = d.File.ReadAt(e.Offset, e.Length)
		} else {
			data, err = d.File.ReadAtLocked(e.Offset, e.Length)
		}
		if err != nil {
			return nil, err
		}
		copy(out[start:], data)
		start += e.Length
	}
	return out, nil
}
