// Package lockfs simulates the locking-based parallel file system the
// paper compares against (Lustre): a shared file striped round-robin
// across object storage targets (OSTs) with finite per-OST bandwidth,
// and a distributed lock manager providing POSIX atomicity for
// contiguous operations via byte-range extent locks.
//
// POSIX atomicity is exactly what the paper argues is insufficient:
// a contiguous WriteAt is atomic, but a non-contiguous MPI write must
// be assembled from several WriteAt calls, and making the *set* atomic
// requires additional locking at the MPI-I/O layer (see
// internal/mpiio's atomicity strategies, which drive this package).
package lockfs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/lockmgr"
)

// ErrExists is returned when creating a file twice.
var ErrExists = errors.New("lockfs: file already exists")

type stripeKey struct {
	file   uint64
	stripe int64
}

// ost is one object storage target: bounded-bandwidth storage for the
// stripes assigned to it.
type ost struct {
	mu      sync.Mutex
	stripes map[stripeKey][]byte
	meter   *iosim.Meter
}

// FS is the simulated parallel file system.
type FS struct {
	stripeSize int64
	osts       []*ost

	mu     sync.Mutex
	files  map[string]*File
	nextID uint64

	lockModel iosim.CostModel
}

// Config sets up a file system instance.
type Config struct {
	OSTs       int             // number of object storage targets (>=1)
	StripeSize int64           // stripe unit in bytes (>0)
	OSTModel   iosim.CostModel // per-OST service cost
	LockModel  iosim.CostModel // lock manager RPC cost
}

// New creates a file system.
func New(cfg Config) (*FS, error) {
	if cfg.OSTs < 1 {
		return nil, fmt.Errorf("lockfs: need at least one OST, got %d", cfg.OSTs)
	}
	if cfg.StripeSize <= 0 {
		return nil, fmt.Errorf("lockfs: stripe size %d must be positive", cfg.StripeSize)
	}
	fs := &FS{
		stripeSize: cfg.StripeSize,
		files:      make(map[string]*File),
		lockModel:  cfg.LockModel,
	}
	for i := 0; i < cfg.OSTs; i++ {
		fs.osts = append(fs.osts, &ost{
			stripes: make(map[stripeKey][]byte),
			meter:   iosim.NewMeter(cfg.OSTModel, true),
		})
	}
	return fs, nil
}

// Create creates a new file.
func (fs *FS) Create(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, dup := fs.files[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrExists, name)
	}
	fs.nextID++
	f := &File{
		fs:   fs,
		name: name,
		id:   fs.nextID,
		lm:   lockmgr.New(fs.lockModel),
	}
	fs.files[name] = f
	return f, nil
}

// File is a handle to one striped file. All methods are safe for
// concurrent use.
type File struct {
	fs   *FS
	name string
	id   uint64
	lm   *lockmgr.Manager
	size atomic.Int64
}

// LockManager exposes the file's distributed lock manager; the MPI-I/O
// layer uses it to implement atomicity strategies (whole-file and
// bounding-range locks live in the same lock space as the POSIX
// per-call locks, as with fcntl on a real parallel file system).
func (f *File) LockManager() *lockmgr.Manager { return f.lm }

// WriteAt performs a POSIX-atomic contiguous write: it takes an
// exclusive extent lock covering the range, writes the stripes, and
// releases the lock.
func (f *File) WriteAt(off int64, data []byte) error {
	g := f.lm.Acquire(extent.Extent{Offset: off, Length: int64(len(data))}, lockmgr.Exclusive)
	defer g.Release()
	return f.WriteAtLocked(off, data)
}

// ReadAt performs a POSIX-atomic contiguous read under a shared lock.
func (f *File) ReadAt(off, length int64) ([]byte, error) {
	g := f.lm.Acquire(extent.Extent{Offset: off, Length: length}, lockmgr.Shared)
	defer g.Release()
	return f.ReadAtLocked(off, length)
}

// WriteAtLocked writes without taking locks; the caller must already
// hold an exclusive lock covering the range (e.g. the MPI-I/O layer's
// whole-file or bounding-range lock).
func (f *File) WriteAtLocked(off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("lockfs: negative offset %d", off)
	}
	if len(data) == 0 {
		return nil
	}
	// Split into stripe-aligned pieces and write them to their OSTs in
	// parallel (the Lustre client writes to multiple OSTs at once).
	pieces := extent.List{{Offset: off, Length: int64(len(data))}}.SplitAt(f.fs.stripeSize)
	var wg sync.WaitGroup
	var start int64
	for _, p := range pieces {
		chunkData := data[start : start+p.Length]
		start += p.Length
		wg.Add(1)
		go func(p extent.Extent, chunkData []byte) {
			defer wg.Done()
			f.writeStripePiece(p, chunkData)
		}(p, chunkData)
	}
	wg.Wait()
	// Advance the file size watermark.
	end := off + int64(len(data))
	for {
		cur := f.size.Load()
		if end <= cur || f.size.CompareAndSwap(cur, end) {
			break
		}
	}
	return nil
}

// ReadAtLocked reads without taking locks; the caller must hold a
// covering lock. Unwritten bytes read as zero.
func (f *File) ReadAtLocked(off, length int64) ([]byte, error) {
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("lockfs: invalid range [%d,%d)", off, off+length)
	}
	out := make([]byte, length)
	if length == 0 {
		return out, nil
	}
	pieces := extent.List{{Offset: off, Length: length}}.SplitAt(f.fs.stripeSize)
	var wg sync.WaitGroup
	var start int64
	for _, p := range pieces {
		dst := out[start : start+p.Length]
		start += p.Length
		wg.Add(1)
		go func(p extent.Extent, dst []byte) {
			defer wg.Done()
			f.readStripePiece(p, dst)
		}(p, dst)
	}
	wg.Wait()
	return out, nil
}

// ostFor maps a stripe index to its OST (round-robin layout).
func (f *File) ostFor(stripe int64) *ost {
	return f.fs.osts[stripe%int64(len(f.fs.osts))]
}

func (f *File) writeStripePiece(p extent.Extent, data []byte) {
	stripe := p.Offset / f.fs.stripeSize
	o := f.ostFor(stripe)
	key := stripeKey{file: f.id, stripe: stripe}
	inner := p.Offset - stripe*f.fs.stripeSize
	o.mu.Lock()
	page, ok := o.stripes[key]
	if !ok {
		page = make([]byte, f.fs.stripeSize)
		o.stripes[key] = page
	}
	copy(page[inner:], data)
	o.mu.Unlock()
	// Charge the OST's bandwidth outside the map lock; the meter's own
	// exclusivity models the OST's single service channel.
	o.meter.Charge(int64(len(data)))
}

func (f *File) readStripePiece(p extent.Extent, dst []byte) {
	stripe := p.Offset / f.fs.stripeSize
	o := f.ostFor(stripe)
	key := stripeKey{file: f.id, stripe: stripe}
	inner := p.Offset - stripe*f.fs.stripeSize
	o.mu.Lock()
	if page, ok := o.stripes[key]; ok {
		copy(dst, page[inner:inner+int64(len(dst))])
	}
	o.mu.Unlock()
	o.meter.Charge(int64(len(dst)))
}

// Stats aggregates per-file observability data.
type Stats struct {
	LockStats lockmgr.Stats
	Size      int64
}

// Stats returns the file's lock and size statistics.
func (f *File) Stats() Stats {
	return Stats{LockStats: f.lm.Stats(), Size: f.size.Load()}
}
