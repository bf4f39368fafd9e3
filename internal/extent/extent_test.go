package extent

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExtentBasics(t *testing.T) {
	e := Extent{Offset: 10, Length: 5}
	if got := e.End(); got != 15 {
		t.Fatalf("End() = %d, want 15", got)
	}
	if e.Empty() {
		t.Fatal("extent should not be empty")
	}
	if !e.Contains(10) || !e.Contains(14) {
		t.Fatal("Contains should include both boundaries of [10,15)")
	}
	if e.Contains(15) || e.Contains(9) {
		t.Fatal("Contains should exclude 15 and 9")
	}
	if (Extent{Offset: 3}).Empty() != true {
		t.Fatal("zero-length extent must be empty")
	}
}

func TestExtentOverlapIntersect(t *testing.T) {
	cases := []struct {
		a, b    Extent
		overlap bool
		inter   Extent
	}{
		{Extent{0, 10}, Extent{5, 10}, true, Extent{5, 5}},
		{Extent{0, 10}, Extent{10, 5}, false, Extent{}},
		{Extent{0, 10}, Extent{0, 10}, true, Extent{0, 10}},
		{Extent{5, 1}, Extent{0, 100}, true, Extent{5, 1}},
		{Extent{0, 0}, Extent{0, 10}, false, Extent{}},
	}
	for i, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlap {
			t.Errorf("case %d: Overlaps = %v, want %v", i, got, c.overlap)
		}
		if got := c.b.Overlaps(c.a); got != c.overlap {
			t.Errorf("case %d: Overlaps not symmetric", i)
		}
		if got := c.a.Intersect(c.b); got != c.inter {
			t.Errorf("case %d: Intersect = %v, want %v", i, got, c.inter)
		}
	}
}

func TestExtentValidate(t *testing.T) {
	if err := (Extent{Offset: -1, Length: 2}).Validate(); err == nil {
		t.Fatal("negative offset must fail validation")
	}
	if err := (Extent{Offset: 1, Length: -2}).Validate(); err == nil {
		t.Fatal("negative length must fail validation")
	}
	if err := (Extent{Offset: 0, Length: 0}).Validate(); err != nil {
		t.Fatalf("empty extent should validate: %v", err)
	}
}

func TestNormalizeMergesAdjacentAndOverlapping(t *testing.T) {
	l := List{{20, 5}, {0, 10}, {10, 5}, {22, 1}, {40, 0}}
	n := l.Normalize()
	want := List{{0, 15}, {20, 5}}
	if !n.Equal(want) {
		t.Fatalf("Normalize = %v, want %v", n, want)
	}
	if !n.IsNormalized() {
		t.Fatal("result of Normalize must be normalized")
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if got := (List{}).Normalize(); len(got) != 0 {
		t.Fatalf("Normalize(empty) = %v", got)
	}
	if got := (List{{0, 0}, {5, 0}}).Normalize(); len(got) != 0 {
		t.Fatalf("Normalize(all-empty) = %v", got)
	}
}

func TestBounding(t *testing.T) {
	l := List{{100, 10}, {5, 2}, {50, 1}}
	if got, want := l.Bounding(), (Extent{5, 105}); got != want {
		t.Fatalf("Bounding = %v, want %v", got, want)
	}
	if got := (List{}).Bounding(); !got.Empty() {
		t.Fatalf("Bounding(empty) = %v, want empty", got)
	}
}

func TestListOverlaps(t *testing.T) {
	a := List{{0, 10}, {20, 10}}
	b := List{{10, 10}, {30, 5}}
	if a.Overlaps(b) {
		t.Fatal("disjoint lists reported overlapping")
	}
	c := List{{25, 1}}
	if !a.Overlaps(c) {
		t.Fatal("overlapping lists reported disjoint")
	}
	if a.Overlaps(List{}) {
		t.Fatal("overlap with empty list")
	}
}

func TestIntersectSubtractUnion(t *testing.T) {
	a := List{{0, 100}}
	b := List{{10, 10}, {50, 10}}
	inter := a.Intersect(b)
	if !inter.Equal(b) {
		t.Fatalf("Intersect = %v, want %v", inter, b)
	}
	diff := a.Subtract(b)
	want := List{{0, 10}, {20, 30}, {60, 40}}
	if !diff.Equal(want) {
		t.Fatalf("Subtract = %v, want %v", diff, want)
	}
	u := diff.Union(b)
	if !u.Equal(a) {
		t.Fatalf("Union = %v, want %v", u, a)
	}
}

func TestSubtractEdges(t *testing.T) {
	a := List{{10, 10}}
	if got := a.Subtract(List{{0, 100}}); len(got) != 0 {
		t.Fatalf("full subtraction = %v, want empty", got)
	}
	if got := a.Subtract(List{}); !got.Equal(a) {
		t.Fatalf("subtract empty = %v, want %v", got, a)
	}
	// Punch a hole in the middle.
	got := a.Subtract(List{{14, 2}})
	want := List{{10, 4}, {16, 4}}
	if !got.Equal(want) {
		t.Fatalf("hole subtraction = %v, want %v", got, want)
	}
}

func TestCoveredBy(t *testing.T) {
	a := List{{5, 5}, {20, 5}}
	if !a.CoveredBy(List{{0, 100}}) {
		t.Fatal("a should be covered by [0,100)")
	}
	if a.CoveredBy(List{{0, 22}}) {
		t.Fatal("a should not be covered by [0,22)")
	}
}

func TestSplitAt(t *testing.T) {
	l := List{{5, 20}}
	got := l.SplitAt(8)
	want := List{{5, 3}, {8, 8}, {16, 8}, {24, 1}}
	if len(got) != len(want) {
		t.Fatalf("SplitAt = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SplitAt[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// No extent may cross a stride boundary.
	for _, e := range got {
		if e.Offset/8 != (e.End()-1)/8 {
			t.Fatalf("extent %v crosses stride boundary", e)
		}
	}
	if got := l.SplitAt(0); !got.Equal(l) {
		t.Fatalf("SplitAt(0) should be identity, got %v", got)
	}
}

func TestTotalLength(t *testing.T) {
	l := List{{0, 3}, {10, 7}}
	if got := l.TotalLength(); got != 10 {
		t.Fatalf("TotalLength = %d, want 10", got)
	}
}

// genList builds a random small extent list for property tests.
func genList(r *rand.Rand) List {
	n := r.Intn(8)
	l := make(List, 0, n)
	for i := 0; i < n; i++ {
		l = append(l, Extent{Offset: int64(r.Intn(200)), Length: int64(r.Intn(40))})
	}
	return l
}

func TestPropNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := genList(r)
		n1 := l.Normalize()
		n2 := n1.Normalize()
		return n1.Equal(n2) && n1.IsNormalized()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropNormalizePreservesCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := genList(r)
		n := l.Normalize()
		// Per-byte coverage must be identical over the probed domain.
		for off := int64(0); off < 250; off++ {
			inL := false
			for _, e := range l {
				if e.Contains(off) {
					inL = true
					break
				}
			}
			inN := false
			for _, e := range n {
				if e.Contains(off) {
					inN = true
					break
				}
			}
			if inL != inN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSetAlgebra(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := genList(r)
		b := genList(r)
		inter := a.Intersect(b)
		diff := a.Subtract(b)
		// (a∩b) ∪ (a−b) == normalized a
		if !inter.Union(diff).Equal(a.Normalize()) {
			return false
		}
		// a−b and b are disjoint.
		if diff.Overlaps(b) {
			return false
		}
		// a∩b is covered by both.
		if !inter.CoveredBy(a) || !inter.CoveredBy(b) {
			return false
		}
		// Overlap symmetry and consistency with intersection.
		if a.Overlaps(b) != (inter.TotalLength() > 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropSplitAtPreservesBytes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := genList(r).Normalize()
		stride := int64(r.Intn(16) + 1)
		s := l.SplitAt(stride)
		if s.TotalLength() != l.TotalLength() {
			return false
		}
		return s.Equal(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVecValidation(t *testing.T) {
	_, err := NewVec(List{{0, 4}}, make([]byte, 3))
	if err == nil {
		t.Fatal("mismatched buffer must fail")
	}
	_, err = NewVec(List{{-1, 4}}, make([]byte, 4))
	if err == nil {
		t.Fatal("invalid extent must fail")
	}
	v, err := NewVec(List{{0, 2}, {10, 2}}, []byte{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Slice(1); got[0] != 3 || got[1] != 4 {
		t.Fatalf("Slice(1) = %v", got)
	}
}

func TestVecScatterGatherRoundTrip(t *testing.T) {
	v, err := NewVec(List{{2, 3}, {8, 2}}, []byte{10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	image := make([]byte, 12)
	v.ScatterInto(image, 0)
	want := []byte{0, 0, 10, 11, 12, 0, 0, 0, 13, 14, 0, 0}
	for i := range want {
		if image[i] != want[i] {
			t.Fatalf("image[%d] = %d, want %d", i, image[i], want[i])
		}
	}
	out, _ := NewVec(v.Extents, make([]byte, 5))
	out.GatherFrom(image, 0)
	for i := range v.Buf {
		if out.Buf[i] != v.Buf[i] {
			t.Fatalf("gather mismatch at %d", i)
		}
	}
}

func TestVecForEach(t *testing.T) {
	v, _ := NewVec(List{{0, 1}, {5, 2}}, []byte{9, 7, 8})
	var seen []Extent
	var bytes []byte
	err := v.ForEach(func(e Extent, b []byte) error {
		seen = append(seen, e)
		bytes = append(bytes, b...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || seen[0] != (Extent{0, 1}) || seen[1] != (Extent{5, 2}) {
		t.Fatalf("seen = %v", seen)
	}
	if string(bytes) != string([]byte{9, 7, 8}) {
		t.Fatalf("bytes = %v", bytes)
	}
}

func TestIntersectsExtent(t *testing.T) {
	l := List{{Offset: 10, Length: 10}, {Offset: 40, Length: 5}}
	cases := []struct {
		e    Extent
		want bool
	}{
		{Extent{Offset: 0, Length: 10}, false},
		{Extent{Offset: 0, Length: 11}, true},
		{Extent{Offset: 19, Length: 1}, true},
		{Extent{Offset: 20, Length: 20}, false},
		{Extent{Offset: 44, Length: 100}, true},
		{Extent{Offset: 45, Length: 100}, false},
		{Extent{Offset: 15, Length: 0}, false},
	}
	for i, c := range cases {
		if got := l.IntersectsExtent(c.e); got != c.want {
			t.Fatalf("case %d: IntersectsExtent(%v) = %v, want %v", i, c.e, got, c.want)
		}
	}
	if (List{}).IntersectsExtent(Extent{Offset: 0, Length: 1}) {
		t.Fatal("empty list must not intersect")
	}
}

func TestPropIntersectsExtentMatchesOverlaps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := genList(r).Normalize()
		e := Extent{Offset: int64(r.Intn(250)), Length: int64(r.Intn(40))}
		return l.IntersectsExtent(e) == l.Overlaps(List{e})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// normalizeInputs are the two shapes BenchmarkNormalize times: 64 disjoint
// extents in order — what callers that normalize defensively pass — and
// the same 64 shuffled.
func normalizeInputs() (sorted, shuffled List) {
	sorted = make(List, 64)
	for i := range sorted {
		sorted[i] = Extent{Offset: int64(i) * 4096, Length: 1024}
	}
	shuffled = sorted.Clone()
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return sorted, shuffled
}

// Normalize allocates its result and nothing else, sorted input or not,
// and never hands the input back.
func TestNormalizeAllocatesOnce(t *testing.T) {
	sorted, shuffled := normalizeInputs()
	for name, l := range map[string]List{"sorted": sorted, "shuffled": shuffled} {
		var out List
		if allocs := testing.AllocsPerRun(100, func() { out = l.Normalize() }); allocs != 1 {
			t.Errorf("%s: %v allocations per Normalize, want 1", name, allocs)
		}
		if !out.Equal(sorted) || !out.IsNormalized() {
			t.Errorf("%s: Normalize = %v", name, out)
		}
		if &out[0] == &l[0] {
			t.Errorf("%s: Normalize returned its input", name)
		}
	}
}

func BenchmarkNormalize(b *testing.B) {
	sorted, shuffled := normalizeInputs()
	for _, in := range []struct {
		name string
		l    List
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if len(in.l.Normalize()) != len(sorted) {
					b.Fatal("wrong result")
				}
			}
		})
	}
}

func TestCut(t *testing.T) {
	l := List{{Offset: 10, Length: 10}, {Offset: 30, Length: 10}, {Offset: 50, Length: 10}}
	for _, tc := range []struct {
		at           int64
		below, above List
	}{
		{0, List{}, l},
		{10, List{}, l},
		{15, List{{Offset: 10, Length: 5}}, List{{Offset: 15, Length: 5}, {Offset: 30, Length: 10}, {Offset: 50, Length: 10}}},
		{20, l[:1], l[1:]},
		{25, l[:1], l[1:]},
		{39, List{{Offset: 10, Length: 10}, {Offset: 30, Length: 9}}, List{{Offset: 39, Length: 1}, {Offset: 50, Length: 10}}},
		{60, l, List{}},
		{99, l, List{}},
	} {
		below, above := l.Cut(tc.at)
		if !below.Equal(tc.below) || !above.Equal(tc.above) {
			t.Errorf("Cut(%d) = %v, %v; want %v, %v", tc.at, below, above, tc.below, tc.above)
		}
	}
	if want := (List{{Offset: 10, Length: 10}, {Offset: 30, Length: 10}, {Offset: 50, Length: 10}}); !l.Equal(want) {
		t.Fatalf("Cut modified its receiver: %v", l)
	}
}

// Cutting anywhere loses and invents nothing: the parts tile the list
// either side of the cut.
func TestPropCutTilesTheList(t *testing.T) {
	f := func(seed int64, at uint16) bool {
		l := genList(rand.New(rand.NewSource(seed))).Normalize()
		before := l.Clone()
		below, above := l.Cut(int64(at))
		ok := below.Union(above).Equal(l) && !below.Overlaps(above) && l.Equal(before)
		if n := len(below); n > 0 {
			ok = ok && below[n-1].End() <= int64(at)
		}
		if len(above) > 0 {
			ok = ok && above[0].Offset >= int64(at)
		}
		return ok && below.IsNormalized() && above.IsNormalized()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
