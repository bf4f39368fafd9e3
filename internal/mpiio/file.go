package mpiio

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/datatype"
	"repro/internal/extent"
	"repro/internal/mpi"
)

// View is an MPI-I/O file view: a displacement, an elementary type and
// a filetype whose tiling over the file selects the bytes visible to
// this process.
type View struct {
	Disp     int64
	Etype    datatype.Datatype
	Filetype datatype.Datatype
}

// DefaultView exposes the whole file as a flat byte stream.
func DefaultView() View {
	return View{Disp: 0, Etype: datatype.Byte, Filetype: datatype.Byte}
}

// Validate checks the MPI view constraints, and the invariants of any
// etype or filetype that can check its own (datatype.Indexed,
// datatype.Subarray).
func (v View) Validate() error {
	if v.Disp < 0 {
		return fmt.Errorf("mpiio: negative displacement %d", v.Disp)
	}
	for _, d := range []datatype.Datatype{v.Etype, v.Filetype} {
		if c, ok := d.(interface{ Validate() error }); ok {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("mpiio: %w", err)
			}
		}
	}
	if v.Etype.Size() <= 0 {
		return errors.New("mpiio: etype must have positive size")
	}
	if v.Filetype.Size() <= 0 || v.Filetype.Size()%v.Etype.Size() != 0 {
		return fmt.Errorf("mpiio: filetype size %d not a positive multiple of etype size %d",
			v.Filetype.Size(), v.Etype.Size())
	}
	fl := v.Filetype.Flatten()
	if len(fl) > 0 && fl[len(fl)-1].End() > v.Filetype.Extent() {
		return errors.New("mpiio: filetype payload exceeds its extent")
	}
	return nil
}

// File is an open MPI file handle. Handles are per-process (one per
// rank); processes opening the same file share the driver's underlying
// storage. A File with a nil communicator supports independent
// operations only.
type File struct {
	comm *mpi.Comm
	drv  Driver

	mu         sync.Mutex
	view       View
	atomicMode bool
}

// Open builds a file handle over a driver. comm may be nil for
// non-collective use.
func Open(comm *mpi.Comm, drv Driver) *File {
	return &File{comm: comm, drv: drv, view: DefaultView()}
}

// SetView installs a new file view (MPI_File_set_view).
func (f *File) SetView(v View) error {
	if err := v.Validate(); err != nil {
		return err
	}
	f.mu.Lock()
	f.view = v
	f.mu.Unlock()
	return nil
}

// SetAtomicity toggles MPI atomic mode (MPI_File_set_atomicity).
func (f *File) SetAtomicity(on bool) {
	f.mu.Lock()
	f.atomicMode = on
	f.mu.Unlock()
}

// viewExtents maps the byte range [dataOff, dataOff+length) of the
// view's data space onto file extents, in data order. The returned
// list is sorted and disjoint because filetype payloads are monotone
// within one tile and tiles advance monotonically.
func viewExtents(v View, dataOff, length int64) (extent.List, error) {
	if dataOff < 0 || length < 0 {
		return nil, fmt.Errorf("mpiio: invalid view range [%d,+%d)", dataOff, length)
	}
	if length == 0 {
		return nil, nil
	}
	tileData := v.Filetype.Size()
	tileSpan := v.Filetype.Extent()
	flat := v.Filetype.Flatten()

	var out extent.List
	tile := dataOff / tileData
	posInTile := dataOff % tileData
	remaining := length
	for remaining > 0 {
		base := v.Disp + tile*tileSpan
		var seen int64
		for _, seg := range flat {
			if remaining == 0 {
				break
			}
			segLen := seg.Length
			if posInTile >= seen+segLen {
				seen += segLen
				continue
			}
			skip := int64(0)
			if posInTile > seen {
				skip = posInTile - seen
			}
			n := segLen - skip
			if n > remaining {
				n = remaining
			}
			out = append(out, extent.Extent{Offset: base + seg.Offset + skip, Length: n})
			remaining -= n
			posInTile += n
			seen += segLen
		}
		tile++
		posInTile = 0
	}
	// Coalesce extents that touch across tile boundaries.
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].End() == e.Offset {
			merged[n-1].Length += e.Length
			continue
		}
		merged = append(merged, e)
	}
	return merged, nil
}

// WriteAt writes buf at the given offset (in etype units) through the
// file view, independently of other ranks (MPI_File_write_at). In
// atomic mode the whole call is one MPI-atomic transaction.
func (f *File) WriteAt(offset int64, buf []byte) error {
	f.mu.Lock()
	v := f.view
	atomicMode := f.atomicMode
	f.mu.Unlock()
	if int64(len(buf))%v.Etype.Size() != 0 {
		return fmt.Errorf("mpiio: buffer length %d not a multiple of etype size %d", len(buf), v.Etype.Size())
	}
	ext, err := viewExtents(v, offset*v.Etype.Size(), int64(len(buf)))
	if err != nil {
		return err
	}
	if len(ext) == 0 {
		return nil
	}
	vec, err := extent.NewVec(ext, buf)
	if err != nil {
		return err
	}
	return f.drv.WriteList(vec, atomicMode)
}

// ReadAt reads length bytes (a multiple of the etype size) at the
// given offset (in etype units) through the view (MPI_File_read_at).
func (f *File) ReadAt(offset int64, length int64) ([]byte, error) {
	f.mu.Lock()
	v := f.view
	atomicMode := f.atomicMode
	f.mu.Unlock()
	if length%v.Etype.Size() != 0 {
		return nil, fmt.Errorf("mpiio: read length %d not a multiple of etype size %d", length, v.Etype.Size())
	}
	ext, err := viewExtents(v, offset*v.Etype.Size(), length)
	if err != nil {
		return nil, err
	}
	if len(ext) == 0 {
		return []byte{}, nil
	}
	return f.drv.ReadList(ext, atomicMode)
}
