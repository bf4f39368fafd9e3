// Package extent provides byte-range primitives used throughout the
// storage stack: single extents, normalized extent lists, and the set
// operations (merge, intersect, subtract, overlap detection) needed to
// implement List I/O-style non-contiguous accesses.
//
// An Extent is a half-open interval [Offset, Offset+Length) in a flat
// byte address space. An extent with Length == 0 is empty and is removed
// by normalization.
package extent

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Extent is a half-open byte range [Offset, Offset+Length).
type Extent struct {
	Offset int64
	Length int64
}

// End returns the exclusive end offset of the extent.
func (e Extent) End() int64 { return e.Offset + e.Length }

// Empty reports whether the extent covers no bytes.
func (e Extent) Empty() bool { return e.Length <= 0 }

// Contains reports whether off lies inside the extent.
func (e Extent) Contains(off int64) bool {
	return off >= e.Offset && off < e.End()
}

// Overlaps reports whether the two extents share at least one byte.
func (e Extent) Overlaps(o Extent) bool {
	return e.Offset < o.End() && o.Offset < e.End() && !e.Empty() && !o.Empty()
}

// Intersect returns the overlapping part of two extents. The returned
// extent is empty if they do not overlap.
func (e Extent) Intersect(o Extent) Extent {
	off := max64(e.Offset, o.Offset)
	end := min(e.End(), o.End())
	if end <= off {
		return Extent{}
	}
	return Extent{Offset: off, Length: end - off}
}

// Union returns the smallest extent covering both inputs. It is only
// meaningful when the extents overlap or touch; callers wanting exact set
// union should use List operations.
// Public as repro.Extent.Union.
func (e Extent) Union(o Extent) Extent {
	if e.Empty() {
		return o
	}
	if o.Empty() {
		return e
	}
	off := min(e.Offset, o.Offset)
	end := max64(e.End(), o.End())
	return Extent{Offset: off, Length: end - off}
}

// Shift returns the extent translated by delta bytes.
func (e Extent) Shift(delta int64) Extent {
	return Extent{Offset: e.Offset + delta, Length: e.Length}
}

func (e Extent) String() string {
	return fmt.Sprintf("[%d,%d)", e.Offset, e.End())
}

// Validate reports an error for negative offsets or lengths.
func (e Extent) Validate() error {
	if e.Offset < 0 {
		return fmt.Errorf("extent: negative offset %d", e.Offset)
	}
	if e.Length < 0 {
		return fmt.Errorf("extent: negative length %d", e.Length)
	}
	return nil
}

// List is a sequence of extents. A normalized list is sorted by offset,
// contains no empty extents, and adjacent or overlapping extents are
// coalesced. Most consumers require normalized lists; use Normalize.
type List []Extent

// Clone returns a deep copy of the list.
func (l List) Clone() List {
	if l == nil {
		return nil
	}
	out := make(List, len(l))
	copy(out, l)
	return out
}

// TotalLength returns the sum of the lengths of all extents. For a
// normalized list this equals the number of distinct bytes covered.
func (l List) TotalLength() int64 {
	var n int64
	for _, e := range l {
		n += e.Length
	}
	return n
}

// Validate checks every extent for negative fields.
func (l List) Validate() error {
	for i, e := range l {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("extent %d: %w", i, err)
		}
	}
	return nil
}

// IsNormalized reports whether the list is sorted, gapless-coalesced and
// free of empty extents.
func (l List) IsNormalized() bool {
	for i, e := range l {
		if e.Empty() {
			return false
		}
		if i > 0 && l[i-1].End() >= e.Offset {
			return false
		}
	}
	return true
}

// Normalize returns a sorted copy with empty extents dropped and
// overlapping or adjacent extents merged. The copy is the one allocation;
// input that is already in order — the usual case, callers normalize
// defensively — is not sorted again.
func (l List) Normalize() List {
	out := make(List, 0, len(l))
	sorted := true
	for _, e := range l {
		if e.Empty() {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Offset > e.Offset {
			sorted = false
		}
		out = append(out, e)
	}
	if !sorted {
		// By offset alone: the merge below takes the furthest end of
		// extents that start together, whatever order they come in.
		slices.SortFunc(out, func(a, b Extent) int { return cmp.Compare(a.Offset, b.Offset) })
	}
	// Merge in place: the write index never passes the read index.
	n := 0
	for _, e := range out {
		if n > 0 && out[n-1].End() >= e.Offset {
			if e.End() > out[n-1].End() {
				out[n-1].Length = e.End() - out[n-1].Offset
			}
			continue
		}
		out[n] = e
		n++
	}
	return out[:n]
}

// Bounding returns the smallest single extent covering every extent in
// the list, i.e. the byte range a bounding-range lock must cover. The
// zero extent is returned for an empty list.
func (l List) Bounding() Extent {
	first := true
	var lo, hi int64
	for _, e := range l {
		if e.Empty() {
			continue
		}
		if first {
			lo, hi = e.Offset, e.End()
			first = false
			continue
		}
		lo = min(lo, e.Offset)
		hi = max64(hi, e.End())
	}
	if first {
		return Extent{}
	}
	return Extent{Offset: lo, Length: hi - lo}
}

// Overlaps reports whether any byte is covered by both lists. Both lists
// may be un-normalized; the check is performed on normalized copies.
func (l List) Overlaps(o List) bool {
	a, b := l, o
	if !a.IsNormalized() {
		a = a.Normalize()
	}
	if !b.IsNormalized() {
		b = b.Normalize()
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Overlaps(b[j]) {
			return true
		}
		if a[i].End() <= b[j].End() {
			i++
		} else {
			j++
		}
	}
	return false
}

// IntersectsExtent reports whether the normalized list covers any byte
// of e, using binary search. The receiver must be normalized.
func (l List) IntersectsExtent(e Extent) bool {
	if e.Empty() || len(l) == 0 {
		return false
	}
	// First extent whose end is beyond e.Offset.
	i := sort.Search(len(l), func(i int) bool { return l[i].End() > e.Offset })
	return i < len(l) && l[i].Offset < e.End()
}

// Intersect returns the normalized set intersection of two lists.
func (l List) Intersect(o List) List {
	a := l.Normalize()
	b := o.Normalize()
	var out List
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if x := a[i].Intersect(b[j]); !x.Empty() {
			out = append(out, x)
		}
		if a[i].End() <= b[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Subtract returns the normalized set difference l − o.
func (l List) Subtract(o List) List {
	a := l.Normalize()
	b := o.Normalize()
	var out List
	j := 0
	for _, e := range a {
		cur := e
		for j < len(b) && b[j].End() <= cur.Offset {
			j++
		}
		k := j
		for k < len(b) && b[k].Offset < cur.End() {
			x := cur.Intersect(b[k])
			if x.Empty() {
				k++
				continue
			}
			if x.Offset > cur.Offset {
				out = append(out, Extent{Offset: cur.Offset, Length: x.Offset - cur.Offset})
			}
			if x.End() >= cur.End() {
				cur = Extent{}
				break
			}
			cur = Extent{Offset: x.End(), Length: cur.End() - x.End()}
			k++
		}
		if !cur.Empty() {
			out = append(out, cur)
		}
	}
	return out
}

// Cut splits the normalized list at offset at: below holds every byte
// before it, above every byte from it on. The parts alias l — neither
// may be modified — and only an extent that straddles at costs a copy.
func (l List) Cut(at int64) (below, above List) {
	i := sort.Search(len(l), func(i int) bool { return l[i].End() > at })
	if i == len(l) || l[i].Offset >= at {
		return l[:i], l[i:]
	}
	e := l[i]
	below = append(l[:i:i], Extent{Offset: e.Offset, Length: at - e.Offset})
	above = append(List{{Offset: at, Length: e.End() - at}}, l[i+1:]...)
	return below, above
}

// Union returns the normalized set union of two lists.
func (l List) Union(o List) List {
	joined := make(List, 0, len(l)+len(o))
	joined = append(joined, l...)
	joined = append(joined, o...)
	return joined.Normalize()
}

// CoveredBy reports whether every byte of l is also covered by o.
// Public as repro.ExtentList.CoveredBy.
func (l List) CoveredBy(o List) bool {
	return len(l.Subtract(o)) == 0
}

// Equal reports whether two normalized lists cover exactly the same byte
// set. Inputs are normalized defensively.
// Public as repro.ExtentList.Equal.
func (l List) Equal(o List) bool {
	a := l.Normalize()
	b := o.Normalize()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SplitAt cuts every extent of the (normalized) list at the given
// boundary interval size, producing extents that never cross a multiple
// of stride. Used to map extents onto fixed-size pages or stripes.
func (l List) SplitAt(stride int64) List {
	if stride <= 0 {
		return l.Clone()
	}
	var out List
	for _, e := range l {
		off := e.Offset
		remaining := e.Length
		for remaining > 0 {
			boundary := (off/stride + 1) * stride
			n := min(remaining, boundary-off)
			out = append(out, Extent{Offset: off, Length: n})
			off += n
			remaining -= n
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
