package datatype

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/extent"
)

func TestElementary(t *testing.T) {
	if Byte.Size() != 1 || Int32.Size() != 4 || (Elementary{Width: 8}).Size() != 8 {
		t.Fatal("elementary widths wrong")
	}
	fl := Elementary{Width: 8}.Flatten()
	if len(fl) != 1 || fl[0] != (extent.Extent{Offset: 0, Length: 8}) {
		t.Fatalf("Flatten = %v", fl)
	}
}

func TestContiguous(t *testing.T) {
	c := Contiguous{Count: 5, Base: Int32}
	if c.Size() != 20 || c.Extent() != 20 {
		t.Fatalf("size/extent = %d/%d", c.Size(), c.Extent())
	}
	fl := c.Flatten()
	// Adjacent elements must merge into a single extent.
	if len(fl) != 1 || fl[0] != (extent.Extent{Offset: 0, Length: 20}) {
		t.Fatalf("Flatten = %v", fl)
	}
}

func TestVector(t *testing.T) {
	// 3 blocks of 2 int32, stride 4 elements: |XX..|XX..|XX|
	v := Vector{Count: 3, BlockLen: 2, Stride: 4, Base: Int32}
	if v.Size() != 24 {
		t.Fatalf("Size = %d", v.Size())
	}
	if v.Extent() != (2*4+2)*4 {
		t.Fatalf("Extent = %d", v.Extent())
	}
	fl := v.Flatten()
	want := extent.List{
		{Offset: 0, Length: 8},
		{Offset: 16, Length: 8},
		{Offset: 32, Length: 8},
	}
	if !fl.Equal(want) {
		t.Fatalf("Flatten = %v, want %v", fl, want)
	}
}

func TestVectorDegenerate(t *testing.T) {
	v := Vector{Count: 0, BlockLen: 2, Stride: 4, Base: Byte}
	if v.Extent() != 0 || v.Size() != 0 || len(v.Flatten()) != 0 {
		t.Fatal("empty vector should be empty")
	}
	// Stride == BlockLen means contiguous.
	v2 := Vector{Count: 3, BlockLen: 2, Stride: 2, Base: Byte}
	fl := v2.Flatten()
	if len(fl) != 1 || fl[0].Length != 6 {
		t.Fatalf("contiguous vector Flatten = %v", fl)
	}
}

func TestIndexed(t *testing.T) {
	x := Indexed{
		BlockLens: []int{2, 1, 3},
		Displs:    []int64{0, 4, 8},
		Base:      Byte,
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if x.Size() != 6 {
		t.Fatalf("Size = %d", x.Size())
	}
	if x.Extent() != 11 {
		t.Fatalf("Extent = %d", x.Extent())
	}
	want := extent.List{
		{Offset: 0, Length: 2},
		{Offset: 4, Length: 1},
		{Offset: 8, Length: 3},
	}
	if !x.Flatten().Equal(want) {
		t.Fatalf("Flatten = %v", x.Flatten())
	}
}

func TestIndexedValidate(t *testing.T) {
	bad := Indexed{BlockLens: []int{2}, Displs: []int64{0, 1}, Base: Byte}
	if bad.Validate() == nil {
		t.Fatal("length mismatch must fail")
	}
	overlap := Indexed{BlockLens: []int{4, 1}, Displs: []int64{0, 2}, Base: Byte}
	if overlap.Validate() == nil {
		t.Fatal("overlapping blocks must fail")
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array of bytes; select rows 1-2, cols 2-4.
	s := Subarray{
		Sizes:    []int{4, 6},
		Subsizes: []int{2, 3},
		Starts:   []int{1, 2},
		Elem:     Byte,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 {
		t.Fatalf("Size = %d", s.Size())
	}
	if s.Extent() != 24 {
		t.Fatalf("Extent = %d", s.Extent())
	}
	want := extent.List{
		{Offset: 8, Length: 3},  // row 1: 1*6+2 = 8
		{Offset: 14, Length: 3}, // row 2: 2*6+2 = 14
	}
	if !s.Flatten().Equal(want) {
		t.Fatalf("Flatten = %v, want %v", s.Flatten(), want)
	}
}

func TestSubarray2DWithElemWidth(t *testing.T) {
	s := Subarray{
		Sizes:    []int{3, 4},
		Subsizes: []int{2, 2},
		Starts:   []int{0, 1},
		Elem:     Elementary{Width: 8},
	}
	want := extent.List{
		{Offset: 8, Length: 16},  // (0*4+1)*8
		{Offset: 40, Length: 16}, // (1*4+1)*8
	}
	if !s.Flatten().Equal(want) {
		t.Fatalf("Flatten = %v, want %v", s.Flatten(), want)
	}
}

func TestSubarray1D(t *testing.T) {
	s := Subarray{Sizes: []int{10}, Subsizes: []int{4}, Starts: []int{3}, Elem: Byte}
	want := extent.List{{Offset: 3, Length: 4}}
	if !s.Flatten().Equal(want) {
		t.Fatalf("Flatten = %v", s.Flatten())
	}
}

func TestSubarray3D(t *testing.T) {
	s := Subarray{
		Sizes:    []int{2, 3, 4},
		Subsizes: []int{2, 2, 2},
		Starts:   []int{0, 1, 1},
		Elem:     Byte,
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rows at (z,y): (0,1)=0*12+1*4+1=5, (0,2)=9, (1,1)=17, (1,2)=21.
	want := extent.List{
		{Offset: 5, Length: 2},
		{Offset: 9, Length: 2},
		{Offset: 17, Length: 2},
		{Offset: 21, Length: 2},
	}
	if !s.Flatten().Equal(want) {
		t.Fatalf("Flatten = %v, want %v", s.Flatten(), want)
	}
}

func TestSubarrayFullWidthRowsMerge(t *testing.T) {
	// Selecting entire rows must merge into one extent.
	s := Subarray{
		Sizes:    []int{4, 8},
		Subsizes: []int{2, 8},
		Starts:   []int{1, 0},
		Elem:     Byte,
	}
	fl := s.Flatten()
	if len(fl) != 1 || fl[0] != (extent.Extent{Offset: 8, Length: 16}) {
		t.Fatalf("Flatten = %v", fl)
	}
}

func TestSubarrayValidate(t *testing.T) {
	cases := []Subarray{
		{Sizes: []int{}, Subsizes: []int{}, Starts: []int{}, Elem: Byte},
		{Sizes: []int{4}, Subsizes: []int{4, 4}, Starts: []int{0}, Elem: Byte},
		{Sizes: []int{4}, Subsizes: []int{5}, Starts: []int{0}, Elem: Byte},
		{Sizes: []int{4}, Subsizes: []int{2}, Starts: []int{3}, Elem: Byte},
		{Sizes: []int{4}, Subsizes: []int{0}, Starts: []int{0}, Elem: Byte},
	}
	for i, s := range cases {
		if s.Validate() == nil {
			t.Fatalf("case %d must fail validation", i)
		}
	}
}

// TestPropFlattenSizeConsistency: for any valid datatype, the total
// flattened length must equal Size(), all extents must lie within
// [0, Extent()), and the list must be sorted and disjoint.
func TestPropFlattenSizeConsistency(t *testing.T) {
	check := func(d Datatype) bool {
		fl := d.Flatten()
		if fl.TotalLength() != d.Size() {
			return false
		}
		if !fl.IsNormalized() {
			return false
		}
		if len(fl) > 0 && fl[len(fl)-1].End() > d.Extent() {
			return false
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		elem := []Datatype{Byte, Int32, Elementary{Width: 8}}[r.Intn(3)]
		switch r.Intn(4) {
		case 0:
			return check(Contiguous{Count: r.Intn(10) + 1, Base: elem})
		case 1:
			bl := r.Intn(5) + 1
			return check(Vector{Count: r.Intn(8) + 1, BlockLen: bl, Stride: bl + r.Intn(5), Base: elem})
		case 2:
			n := r.Intn(4) + 1
			lens := make([]int, n)
			displs := make([]int64, n)
			pos := int64(0)
			for i := 0; i < n; i++ {
				displs[i] = pos + int64(r.Intn(3))
				lens[i] = r.Intn(4) + 1
				pos = displs[i] + int64(lens[i])
			}
			x := Indexed{BlockLens: lens, Displs: displs, Base: elem}
			if x.Validate() != nil {
				return false
			}
			return check(x)
		default:
			dims := r.Intn(3) + 1
			sizes := make([]int, dims)
			subs := make([]int, dims)
			starts := make([]int, dims)
			for d := 0; d < dims; d++ {
				sizes[d] = r.Intn(6) + 2
				subs[d] = r.Intn(sizes[d]) + 1
				starts[d] = r.Intn(sizes[d] - subs[d] + 1)
			}
			s := Subarray{Sizes: sizes, Subsizes: subs, Starts: starts, Elem: elem}
			if s.Validate() != nil {
				return false
			}
			return check(s)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestNestedTypes(t *testing.T) {
	// A vector of contiguous pairs: nesting must compose.
	pair := Contiguous{Count: 2, Base: Int32}
	v := Vector{Count: 2, BlockLen: 1, Stride: 2, Base: pair}
	fl := v.Flatten()
	want := extent.List{
		{Offset: 0, Length: 8},
		{Offset: 16, Length: 8},
	}
	if !fl.Equal(want) {
		t.Fatalf("Flatten = %v, want %v", fl, want)
	}
	if v.Size() != 16 {
		t.Fatalf("Size = %d", v.Size())
	}
}
