// Package core defines the storage-backend API the paper proposes — a
// dedicated, non-POSIX access interface with native support for
// non-contiguous, MPI-atomic data accesses — and its versioning-based
// implementation built on the BlobSeer-equivalent service.
//
// The central type is Backend: WriteList applies a whole vector of
// byte ranges as one atomic transaction; ReadList observes one
// immutable snapshot. The versioning implementation never locks: the
// paper's claim is that this is what lets aggregated throughput scale
// under heavy overlapped concurrency, where lock-based designs
// serialize. The lock-based designs it is compared against implement
// this same interface in internal/lockfs and internal/mpiio.
//
// For write-intensive small-call workloads the versioning backend also
// offers a pipelined write path (WritePipe, see pipe.go): writes are
// submitted asynchronously with bounded depth, their chunk I/O overlaps
// the publication of earlier calls, and a single Flush waits for the
// train's last version. Pipelining pairs with the version manager's
// group commit (vmanager.BatchConfig): a deep pipe keeps the manager's
// queue full, so tickets and publications are granted in amortized
// groups instead of one control round trip per call.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

// Version identifies a published snapshot of the shared file. Versions
// are dense and increase by one per write; version 0 is the initial
// empty snapshot.
type Version uint64

// Backend is the storage-backend interface for MPI-atomic list I/O.
// All implementations must guarantee:
//
//   - WriteList is atomic: under concurrency, overlapping bytes of two
//     calls never interleave — every overlapped byte range exposes the
//     data of exactly one of the calls, and the outcome is equivalent
//     to some serial order of the calls (MPI atomic mode semantics).
//   - ReadList is atomic: it observes a state produced by whole write
//     calls, never a partial write.
type Backend interface {
	// Name identifies the implementation in benchmark output.
	Name() string
	// WriteList atomically writes a non-contiguous vector and returns
	// the snapshot version it produced (implementations without
	// versioning return 0).
	WriteList(vec extent.Vec) (Version, error)
	// ReadList atomically reads a non-contiguous vector from the
	// current state and returns the data in list order plus the
	// version observed.
	ReadList(q extent.List) ([]byte, Version, error)
	// Size returns the current file size (highest written byte + 1).
	Size() (int64, error)
}

// Versioned is implemented by backends that retain historical
// snapshots and can read them; only the versioning backend does.
type Versioned interface {
	Backend
	// ReadListAt reads from a specific published snapshot.
	ReadListAt(v Version, q extent.List) ([]byte, error)
	// Latest returns the newest published version.
	Latest() (Version, error)
	// Versions enumerates all published snapshot versions.
	Versions() ([]Version, error)
}

// Stats counts backend operations; all fields are cumulative.
type Stats struct {
	Writes       int64
	Reads        int64
	BytesWritten int64
	BytesRead    int64
}

// VersioningBackend is the paper's storage backend: versioning-based
// MPI-atomic list I/O over the BlobSeer-equivalent service.
type VersioningBackend struct {
	b *blob.Blob

	writes, reads    atomic.Int64
	bytesWr, bytesRd atomic.Int64

	// met holds nil-tolerant WritePipe metric handles (see SetMetrics);
	// nil until wired.
	met struct {
		pipeInflight *metrics.Gauge
		pipeSubmit   *metrics.Counter
		pipeWriteSec *metrics.Histogram
	}
}

// SetMetrics wires the backend's WritePipe occupancy gauge, submit
// counter and per-write data-path latency histogram into reg. Call
// before creating pipes; a nil registry leaves metrics disabled.
func (v *VersioningBackend) SetMetrics(reg *metrics.Registry) {
	v.met.pipeInflight = reg.Gauge("bs_pipe_inflight")
	v.met.pipeSubmit = reg.Counter("bs_pipe_submit_total")
	v.met.pipeWriteSec = reg.Histogram("bs_pipe_write_seconds", nil)
}

var (
	_ Backend   = (*VersioningBackend)(nil)
	_ Versioned = (*VersioningBackend)(nil)
)

// NewVersioning creates the blob backing a new versioning backend.
func NewVersioning(svc blob.Services, blobID uint64, geo segtree.Geometry) (*VersioningBackend, error) {
	b, err := blob.Create(svc, blobID, geo)
	if err != nil {
		return nil, fmt.Errorf("core: create blob: %w", err)
	}
	return &VersioningBackend{b: b}, nil
}

// OpenVersioning attaches to an existing blob.
func OpenVersioning(svc blob.Services, blobID uint64) (*VersioningBackend, error) {
	b, err := blob.Open(svc, blobID)
	if err != nil {
		return nil, fmt.Errorf("core: open blob: %w", err)
	}
	return &VersioningBackend{b: b}, nil
}

// Blob exposes the underlying blob handle (for version-aware tools).
func (v *VersioningBackend) Blob() *blob.Blob { return v.b }

// Name implements Backend.
func (v *VersioningBackend) Name() string { return "versioning" }

// WriteList implements Backend.
func (v *VersioningBackend) WriteList(vec extent.Vec) (Version, error) {
	ver, err := v.b.WriteList(vec, blob.WriteOptions{})
	if err != nil {
		return 0, err
	}
	v.writes.Add(1)
	v.bytesWr.Add(int64(len(vec.Buf)))
	return Version(ver), nil
}

// ReadList implements Backend.
func (v *VersioningBackend) ReadList(q extent.List) ([]byte, Version, error) {
	data, ver, err := v.b.ReadLatest(q)
	if err != nil {
		return nil, 0, err
	}
	v.reads.Add(1)
	v.bytesRd.Add(int64(len(data)))
	return data, Version(ver), nil
}

// ReadListAt implements Versioned.
func (v *VersioningBackend) ReadListAt(ver Version, q extent.List) ([]byte, error) {
	data, err := v.b.ReadList(uint64(ver), q)
	if err != nil {
		return nil, err
	}
	v.reads.Add(1)
	v.bytesRd.Add(int64(len(data)))
	return data, nil
}

// Latest implements Versioned.
func (v *VersioningBackend) Latest() (Version, error) {
	info, err := v.b.Latest()
	if err != nil {
		return 0, err
	}
	return Version(info.Version), nil
}

// Versions implements Versioned.
func (v *VersioningBackend) Versions() ([]Version, error) {
	vs, err := v.b.Versions()
	if err != nil {
		return nil, err
	}
	out := make([]Version, len(vs))
	for i, x := range vs {
		out[i] = Version(x)
	}
	return out, nil
}

// Diff returns the byte ranges that may differ between two published
// snapshots — the application-level versioning primitive the paper's
// conclusions propose for producer/consumer pipelines.
func (v *VersioningBackend) Diff(a, b Version) (extent.List, error) {
	return v.b.Diff(uint64(a), uint64(b))
}

// Scrub reads every published snapshot in full and returns the number
// of versions verified readable. With replicated data providers this
// is the durability check: after a provider loss every committed
// snapshot must still scrub clean via replica failover. The first
// unreadable version aborts the scrub with an error naming it.
func (v *VersioningBackend) Scrub() (int, error) {
	versions, err := v.b.Versions()
	if err != nil {
		return 0, err
	}
	checked := 0
	for _, ver := range versions {
		size, err := v.b.Size(ver)
		if err != nil {
			return checked, fmt.Errorf("core: scrub v%d: %w", ver, err)
		}
		if size > 0 {
			if _, err := v.b.ReadAt(ver, 0, size); err != nil {
				return checked, fmt.Errorf("core: scrub v%d: %w", ver, err)
			}
		}
		checked++
	}
	return checked, nil
}

// Size implements Backend.
func (v *VersioningBackend) Size() (int64, error) {
	info, err := v.b.Latest()
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

// Stats returns cumulative operation counters.
func (v *VersioningBackend) Stats() Stats {
	return Stats{
		Writes:       v.writes.Load(),
		Reads:        v.reads.Load(),
		BytesWritten: v.bytesWr.Load(),
		BytesRead:    v.bytesRd.Load(),
	}
}
