package mpiio

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/lockfs"
	"repro/internal/metadata"
	"repro/internal/mpi"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

func newVersioningDriver(t *testing.T) *VersioningDriver {
	t.Helper()
	mgr, _, err := provider.NewURLPoolInDomains("mem://", 4, 0, iosim.CostModel{}, false)
	if err != nil {
		t.Fatal(err)
	}
	svc := blob.Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	be, err := core.NewVersioning(svc, 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return &VersioningDriver{Backend: be}
}

func newLockFSDriver(t *testing.T, s Strategy) *LockFSDriver {
	t.Helper()
	fs, err := lockfs.New(lockfs.Config{OSTs: 4, StripeSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("shared")
	if err != nil {
		t.Fatal(err)
	}
	return &LockFSDriver{File: f, Strategy: s, Det: NewDetector(iosim.CostModel{})}
}

// atomicStrategies are the locking strategies that provide MPI atomicity.
var atomicStrategies = []Strategy{StrategyWholeFile, StrategyBoundingRange, StrategyListLock, StrategyConflictDetect, StrategyDataSieve}

func allDrivers(t *testing.T) map[string]Driver {
	t.Helper()
	out := map[string]Driver{"versioning": newVersioningDriver(t)}
	for _, s := range append(atomicStrategies, StrategyPOSIX) {
		out[s.String()] = newLockFSDriver(t, s)
	}
	return out
}

func TestViewValidate(t *testing.T) {
	if err := DefaultView().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := View{Disp: -1, Etype: datatype.Byte, Filetype: datatype.Byte}
	if bad.Validate() == nil {
		t.Fatal("negative disp must fail")
	}
	// Filetype size not a multiple of etype size.
	bad2 := View{Etype: datatype.Int32, Filetype: datatype.Contiguous{Count: 3, Base: datatype.Byte}}
	if bad2.Validate() == nil {
		t.Fatal("size mismatch must fail")
	}
	// Filetypes that break their own invariants: the view's own checks
	// pass the first two and index out of range on the third.
	for _, ft := range []datatype.Datatype{
		datatype.Indexed{BlockLens: []int{2, 2}, Displs: []int64{4, 0}, Base: datatype.Byte},
		datatype.Subarray{Sizes: []int{4}, Subsizes: []int{2}, Starts: []int{-1}, Elem: datatype.Byte},
		datatype.Indexed{BlockLens: []int{2}, Displs: []int64{0, 1}, Base: datatype.Byte},
	} {
		if (View{Etype: datatype.Byte, Filetype: ft}).Validate() == nil {
			t.Fatalf("invalid filetype %+v must fail", ft)
		}
	}
}

func TestViewExtentsFlatByteView(t *testing.T) {
	got, err := viewExtents(DefaultView(), 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := extent.List{{Offset: 100, Length: 50}}
	if !got.Equal(want) {
		t.Fatalf("viewExtents = %v, want %v", got, want)
	}
}

func TestViewExtentsWithDisp(t *testing.T) {
	v := View{Disp: 1000, Etype: datatype.Byte, Filetype: datatype.Byte}
	got, err := viewExtents(v, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(extent.List{{Offset: 1000, Length: 10}}) {
		t.Fatalf("viewExtents = %v", got)
	}
}

func TestViewExtentsVectorFiletype(t *testing.T) {
	// Filetype: 2 bytes of every 8 visible. Tile span = 10 bytes
	// (extent of the vector), so tiles do not abut.
	ft := datatype.Vector{Count: 2, BlockLen: 1, Stride: 8, Base: datatype.Byte}
	v := View{Disp: 0, Etype: datatype.Byte, Filetype: ft}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	// Data bytes 0..3 map to file 0, 8, 9(+tilespan)... compute:
	// flatten = [0,1), [8,9); extent = 9.
	got, err := viewExtents(v, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := extent.List{
		{Offset: 0, Length: 1},
		{Offset: 8, Length: 2}, // [8,9) then tile1 base=9: [9,10) merges
		{Offset: 17, Length: 1},
	}
	if !got.Equal(want) {
		t.Fatalf("viewExtents = %v, want %v", got, want)
	}
}

func TestViewExtentsMidTileStart(t *testing.T) {
	ft := datatype.Vector{Count: 2, BlockLen: 2, Stride: 4, Base: datatype.Byte}
	// flatten = [0,2), [4,6); size 4, extent 6.
	v := View{Disp: 0, Etype: datatype.Byte, Filetype: ft}
	got, err := viewExtents(v, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Data 3 = second byte of block 2 (file 5), data 4,5 = tile1 block1
	// (file 6,7), data 6 = tile1 block2 first byte (file 10).
	want := extent.List{
		{Offset: 5, Length: 3},
		{Offset: 10, Length: 1},
	}
	if !got.Equal(want) {
		t.Fatalf("viewExtents = %v, want %v", got, want)
	}
}

func TestViewExtentsErrors(t *testing.T) {
	if _, err := viewExtents(DefaultView(), -1, 5); err == nil {
		t.Fatal("negative offset must fail")
	}
	got, err := viewExtents(DefaultView(), 0, 0)
	if err != nil || got != nil {
		t.Fatalf("zero length = %v, %v", got, err)
	}
}

func TestWriteReadAllDrivers(t *testing.T) {
	for name, drv := range allDrivers(t) {
		t.Run(name, func(t *testing.T) {
			f := Open(nil, drv)
			data := []byte("mpi-io independent write")
			if err := f.WriteAt(100, data); err != nil {
				t.Fatal(err)
			}
			got, err := f.ReadAt(100, int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read = %q", got)
			}
		})
	}
}

func TestWriteThroughSubarrayView(t *testing.T) {
	for name, drv := range allDrivers(t) {
		t.Run(name, func(t *testing.T) {
			// 8x8 byte array; this process owns the 4x4 block at (2,2).
			ft := datatype.Subarray{
				Sizes:    []int{8, 8},
				Subsizes: []int{4, 4},
				Starts:   []int{2, 2},
				Elem:     datatype.Byte,
			}
			f := Open(nil, drv)
			if err := f.SetView(View{Disp: 0, Etype: datatype.Byte, Filetype: ft}); err != nil {
				t.Fatal(err)
			}
			buf := bytes.Repeat([]byte{7}, 16)
			if err := f.WriteAt(0, buf); err != nil {
				t.Fatal(err)
			}
			got, err := f.ReadAt(0, 16)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, buf) {
				t.Fatalf("view read = %v", got)
			}
			// Verify raw placement: row 2, cols 2-5.
			raw, err := drv.ReadList(extent.List{{Offset: 2*8 + 2, Length: 4}}, false)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, []byte{7, 7, 7, 7}) {
				t.Fatalf("raw = %v", raw)
			}
			// A cell outside the subarray must be zero.
			raw2, err := drv.ReadList(extent.List{{Offset: 0, Length: 1}}, false)
			if err != nil || raw2[0] != 0 {
				t.Fatalf("outside cell = %v, %v", raw2, err)
			}
		})
	}
}

func TestAtomicModeOverlappingWriters(t *testing.T) {
	// For every atomicity-providing configuration, concurrent writers
	// with identical non-contiguous extent lists must produce a final
	// state that is entirely one writer's data.
	configs := map[string]Driver{"versioning": newVersioningDriver(t)}
	for _, s := range atomicStrategies {
		configs[s.String()] = newLockFSDriver(t, s)
	}
	l := extent.List{{Offset: 0, Length: 300}, {Offset: 2000, Length: 300}, {Offset: 7000, Length: 300}}
	for name, drv := range configs {
		t.Run(name, func(t *testing.T) {
			const writers = 8
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					buf := bytes.Repeat([]byte{byte(w + 1)}, int(l.TotalLength()))
					vec, _ := extent.NewVec(l, buf)
					if err := drv.WriteList(vec, true); err != nil {
						t.Error(err)
					}
				}(w)
			}
			wg.Wait()
			got, err := drv.ReadList(l, true)
			if err != nil {
				t.Fatal(err)
			}
			first := got[0]
			if first == 0 {
				t.Fatal("no data written")
			}
			for i, b := range got {
				if b != first {
					t.Fatalf("byte %d = %d, want %d: atomicity violated", i, b, first)
				}
			}
		})
	}
}

func TestDetectorNonOverlappingParallel(t *testing.T) {
	d := NewDetector(iosim.CostModel{})
	id1, c1 := d.Begin(extent.List{{Offset: 0, Length: 10}})
	id2, c2 := d.Begin(extent.List{{Offset: 10, Length: 10}})
	if c1 || c2 {
		t.Fatal("disjoint ops must not conflict")
	}
	d.End(id1)
	d.End(id2)
	st := d.Stats()
	if st.Ops != 2 || st.Conflicts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDetectorOverlapSerializes(t *testing.T) {
	d := NewDetector(iosim.CostModel{})
	id1, _ := d.Begin(extent.List{{Offset: 0, Length: 10}})
	started := make(chan struct{})
	finished := make(chan bool, 1)
	go func() {
		close(started)
		id2, conflicted := d.Begin(extent.List{{Offset: 5, Length: 10}})
		finished <- conflicted
		d.End(id2)
	}()
	<-started
	select {
	case <-finished:
		t.Fatal("overlapping Begin did not block")
	default:
	}
	d.End(id1)
	if conflicted := <-finished; !conflicted {
		t.Fatal("conflict not reported")
	}
	if d.Stats().Conflicts != 1 {
		t.Fatalf("conflicts = %d", d.Stats().Conflicts)
	}
}

func TestCollectiveWriteTwoPhase(t *testing.T) {
	drv := newVersioningDriver(t)
	const ranks = 4
	const blockLen = 64
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		f := Open(c, drv)
		f.SetAtomicity(true)
		// Interleaved pattern: rank r owns every ranks-th block.
		ft := datatype.Vector{Count: 8, BlockLen: blockLen, Stride: ranks * blockLen, Base: datatype.Byte}
		disp := int64(c.Rank() * blockLen)
		if err := f.SetView(View{Disp: disp, Etype: datatype.Byte, Filetype: ft}); err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 8*blockLen)
		return f.WriteAtAll(0, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	// The file must now contain the interleaved ranks pattern.
	f := Open(nil, drv)
	got, err := f.ReadAt(0, ranks*8*blockLen)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		wantRank := byte((i/blockLen)%ranks) + 1
		if b != wantRank {
			t.Fatalf("byte %d = %d, want %d", i, b, wantRank)
		}
	}
}

func TestCollectiveWriteOverlapDeterministic(t *testing.T) {
	drv := newVersioningDriver(t)
	const ranks = 4
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		f := Open(c, drv)
		// All ranks write the same 100 bytes; the overlay rule says the
		// highest rank wins.
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, 100)
		return f.WriteAtAll(0, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(nil, drv).ReadAt(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != ranks {
			t.Fatalf("byte %d = %d, want %d (highest rank)", i, b, ranks)
		}
	}
}

func TestCollectiveEmptyWriters(t *testing.T) {
	drv := newVersioningDriver(t)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		f := Open(c, drv)
		if c.Rank() == 1 {
			return f.WriteAtAll(0, []byte{42})
		}
		return f.WriteAtAll(0, nil) // zero-length participation
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(nil, drv).ReadAt(0, 1)
	if err != nil || got[0] != 42 {
		t.Fatalf("read = %v, %v", got, err)
	}
}

func TestCollectiveAllEmpty(t *testing.T) {
	drv := newVersioningDriver(t)
	err := mpi.Run(3, func(c *mpi.Comm) error {
		f := Open(c, drv)
		return f.WriteAtAll(0, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonAtomicModeStillWrites(t *testing.T) {
	drv := newLockFSDriver(t, StrategyBoundingRange)
	l := extent.List{{Offset: 0, Length: 10}, {Offset: 100, Length: 10}}
	vec, _ := extent.NewVec(l, bytes.Repeat([]byte{9}, 20))
	if err := drv.WriteList(vec, false); err != nil {
		t.Fatal(err)
	}
	got, err := drv.ReadList(l, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 9 {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
}

func TestEtypeUnitConversion(t *testing.T) {
	drv := newVersioningDriver(t)
	f := Open(nil, drv)
	if err := f.SetView(View{Disp: 0, Etype: datatype.Int32, Filetype: datatype.Int32}); err != nil {
		t.Fatal(err)
	}
	// Offset 3 in etype units = byte 12.
	if err := f.WriteAt(3, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	raw, err := drv.ReadList(extent.List{{Offset: 12, Length: 4}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, []byte{1, 2, 3, 4}) {
		t.Fatalf("raw = %v", raw)
	}
	// Misaligned buffer must fail.
	if err := f.WriteAt(0, []byte{1, 2, 3}); err == nil {
		t.Fatal("non-multiple buffer must fail")
	}
	if _, err := f.ReadAt(0, 3); err == nil {
		t.Fatal("non-multiple read must fail")
	}
}

func TestDataSieveMovesWholeBoundingRange(t *testing.T) {
	drv := newLockFSDriver(t, StrategyDataSieve)
	// Two sparse extents far apart: the sieve must read+write the whole
	// bounding range but still only expose the written bytes.
	l := extent.List{{Offset: 0, Length: 4}, {Offset: 8192, Length: 4}}
	vec, _ := extent.NewVec(l, []byte("aaaabbbb"))
	if err := drv.WriteList(vec, true); err != nil {
		t.Fatal(err)
	}
	got, err := drv.ReadList(l, true)
	if err != nil || string(got) != "aaaabbbb" {
		t.Fatalf("read = %q, %v", got, err)
	}
	// Bytes in the gap must still read as zero (the sieve writes back
	// the zeros it read, not garbage).
	gap, err := drv.ReadList(extent.List{{Offset: 4096, Length: 8}}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("gap byte %d = %d", i, b)
		}
	}
	// A second sieved write must preserve the first write's data.
	l2 := extent.List{{Offset: 100, Length: 4}}
	vec2, _ := extent.NewVec(l2, []byte("cccc"))
	if err := drv.WriteList(vec2, true); err != nil {
		t.Fatal(err)
	}
	again, err := drv.ReadList(l, true)
	if err != nil || string(again) != "aaaabbbb" {
		t.Fatalf("after second sieve: %q, %v", again, err)
	}
}
