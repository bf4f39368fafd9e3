// Package datatype implements the subset of MPI derived datatypes the
// paper's workloads need — contiguous, vector, indexed and subarray
// constructors over elementary types — together with flattening:
// converting one instance of a datatype into the ordered list of byte
// ranges it occupies. Flattened datatypes are what the MPI-I/O layer
// hands to the storage backend as List I/O requests (following the
// List I/O proposal of Ching et al. that the paper's access interface
// mirrors).
package datatype

import (
	"fmt"

	"repro/internal/extent"
)

// Datatype describes a typed memory/file layout.
//
// Size is the number of payload bytes in one instance; Extent is the
// span the instance covers (stride footprint, >= Size); Flatten
// returns the payload byte ranges relative to the instance start, in
// type-map order. For all constructors in this package the type map is
// monotonically increasing, so Flatten output is sorted and disjoint.
type Datatype interface {
	Size() int64
	Extent() int64
	Flatten() extent.List
}

// Elementary is a basic type of fixed width (MPI_BYTE, MPI_INT, ...).
type Elementary struct {
	Width int64
}

// Common elementary types. Int32 is kept for tests of two packages:
// TestContiguous here and TestViewValidate in internal/mpiio.
var (
	Byte  = Elementary{Width: 1}
	Int32 = Elementary{Width: 4}
)

// Size implements Datatype.
func (e Elementary) Size() int64 { return e.Width }

// Extent implements Datatype.
func (e Elementary) Extent() int64 { return e.Width }

// Flatten implements Datatype.
func (e Elementary) Flatten() extent.List {
	return extent.List{{Offset: 0, Length: e.Width}}
}

// Contiguous repeats Base Count times back to back (MPI_Type_contiguous).
// Kept, with Vector and Indexed, for tests of two packages: the
// datatype tests and internal/mpiio's view tests (TestViewValidate,
// TestViewExtentsVectorFiletype, TestPropViewExtentsMatchOracle) build
// views from them; the workloads use Subarray alone.
type Contiguous struct {
	Count int
	Base  Datatype
}

// Size implements Datatype.
func (c Contiguous) Size() int64 { return int64(c.Count) * c.Base.Size() }

// Extent implements Datatype.
func (c Contiguous) Extent() int64 { return int64(c.Count) * c.Base.Extent() }

// Flatten implements Datatype.
func (c Contiguous) Flatten() extent.List {
	base := c.Base.Flatten()
	stride := c.Base.Extent()
	out := make(extent.List, 0, c.Count*len(base))
	for i := 0; i < c.Count; i++ {
		for _, e := range base {
			out = append(out, e.Shift(int64(i)*stride))
		}
	}
	return mergeAdjacent(out)
}

// Vector is Count blocks of BlockLen base elements, spaced Stride base
// elements apart (MPI_Type_vector).
// Kept for tests of two packages (see Contiguous).
type Vector struct {
	Count    int
	BlockLen int
	Stride   int
	Base     Datatype
}

// Size implements Datatype.
func (v Vector) Size() int64 { return int64(v.Count) * int64(v.BlockLen) * v.Base.Size() }

// Extent implements Datatype.
func (v Vector) Extent() int64 {
	if v.Count == 0 {
		return 0
	}
	return (int64(v.Count-1)*int64(v.Stride) + int64(v.BlockLen)) * v.Base.Extent()
}

// Flatten implements Datatype.
func (v Vector) Flatten() extent.List {
	be := v.Base.Extent()
	block := Contiguous{Count: v.BlockLen, Base: v.Base}.Flatten()
	out := make(extent.List, 0, v.Count*len(block))
	for i := 0; i < v.Count; i++ {
		for _, e := range block {
			out = append(out, e.Shift(int64(i)*int64(v.Stride)*be))
		}
	}
	return mergeAdjacent(out)
}

// Indexed places blocks of base elements at explicit displacements, in
// the given order (MPI_Type_indexed). Displacements are in base-extent
// units and must be non-decreasing with non-overlapping blocks.
// Kept for tests of two packages (see Contiguous).
type Indexed struct {
	BlockLens []int
	Displs    []int64
	Base      Datatype
}

// Validate checks the structural invariants.
func (x Indexed) Validate() error {
	if len(x.BlockLens) != len(x.Displs) {
		return fmt.Errorf("datatype: indexed: %d block lengths vs %d displacements", len(x.BlockLens), len(x.Displs))
	}
	for i := 1; i < len(x.Displs); i++ {
		if x.Displs[i] < x.Displs[i-1]+int64(x.BlockLens[i-1]) {
			return fmt.Errorf("datatype: indexed: block %d overlaps or precedes block %d", i, i-1)
		}
	}
	return nil
}

// Size implements Datatype.
func (x Indexed) Size() int64 {
	var n int64
	for _, b := range x.BlockLens {
		n += int64(b)
	}
	return n * x.Base.Size()
}

// Extent implements Datatype.
func (x Indexed) Extent() int64 {
	if len(x.Displs) == 0 {
		return 0
	}
	last := len(x.Displs) - 1
	return (x.Displs[last] + int64(x.BlockLens[last])) * x.Base.Extent()
}

// Flatten implements Datatype.
func (x Indexed) Flatten() extent.List {
	be := x.Base.Extent()
	var out extent.List
	for i, d := range x.Displs {
		block := Contiguous{Count: x.BlockLens[i], Base: x.Base}.Flatten()
		for _, e := range block {
			out = append(out, e.Shift(d*be))
		}
	}
	return mergeAdjacent(out)
}

// Subarray selects a rectangular sub-block of an N-dimensional array
// stored in row-major (C) order (MPI_Type_create_subarray). All
// coordinates are in elements of Elem.
type Subarray struct {
	Sizes    []int // full array dimensions, slowest first
	Subsizes []int // selected block dimensions
	Starts   []int // block origin
	Elem     Datatype
}

// Validate checks the coordinate invariants.
func (s Subarray) Validate() error {
	n := len(s.Sizes)
	if n == 0 || len(s.Subsizes) != n || len(s.Starts) != n {
		return fmt.Errorf("datatype: subarray: dimension mismatch (%d/%d/%d)", len(s.Sizes), len(s.Subsizes), len(s.Starts))
	}
	for d := 0; d < n; d++ {
		if s.Sizes[d] <= 0 || s.Subsizes[d] <= 0 {
			return fmt.Errorf("datatype: subarray: non-positive size in dim %d", d)
		}
		if s.Starts[d] < 0 || s.Starts[d]+s.Subsizes[d] > s.Sizes[d] {
			return fmt.Errorf("datatype: subarray: block [%d,%d) exceeds size %d in dim %d",
				s.Starts[d], s.Starts[d]+s.Subsizes[d], s.Sizes[d], d)
		}
	}
	return nil
}

// Size implements Datatype.
func (s Subarray) Size() int64 {
	n := int64(1)
	for _, d := range s.Subsizes {
		n *= int64(d)
	}
	return n * s.Elem.Size()
}

// Extent implements Datatype. A subarray's extent is the full array,
// which is what makes tiling file views with it line up.
func (s Subarray) Extent() int64 {
	n := int64(1)
	for _, d := range s.Sizes {
		n *= int64(d)
	}
	return n * s.Elem.Extent()
}

// Flatten implements Datatype: one extent per contiguous row segment
// of the selected block.
func (s Subarray) Flatten() extent.List {
	n := len(s.Sizes)
	ew := s.Elem.Extent()
	rowLen := int64(s.Subsizes[n-1]) * ew

	// Iterate over all index combinations of the outer n-1 dimensions.
	idx := make([]int, n-1)
	var out extent.List
	for {
		// Linear element offset of the row start.
		var off int64
		for d := 0; d < n-1; d++ {
			off = off*int64(s.Sizes[d]) + int64(s.Starts[d]+idx[d])
		}
		off = off*int64(s.Sizes[n-1]) + int64(s.Starts[n-1])
		out = append(out, extent.Extent{Offset: off * ew, Length: rowLen})
		// Advance the odometer.
		d := n - 2
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < s.Subsizes[d] {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			break
		}
	}
	return mergeAdjacent(out)
}

// mergeAdjacent coalesces touching extents without reordering; inputs
// from this package's constructors are already sorted.
func mergeAdjacent(l extent.List) extent.List {
	out := l[:0]
	for _, e := range l {
		if e.Empty() {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End() == e.Offset {
			out[n-1].Length += e.Length
			continue
		}
		out = append(out, e)
	}
	return out
}
