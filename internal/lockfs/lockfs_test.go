package lockfs

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lockmgr"
)

func testFS(t *testing.T, osts int) *FS {
	t.Helper()
	fs, err := New(Config{OSTs: osts, StripeSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{OSTs: 0, StripeSize: 64}); err == nil {
		t.Fatal("zero OSTs must fail")
	}
	if _, err := New(Config{OSTs: 1, StripeSize: 0}); err == nil {
		t.Fatal("zero stripe must fail")
	}
}

func TestCreateOpen(t *testing.T) {
	fs := testFS(t, 2)
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if fs.files["a"] != f {
		t.Fatal("created file is not the one the file system holds")
	}
	if _, err := fs.Create("a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := testFS(t, 4)
	f, _ := fs.Create("f")
	data := []byte("hello striped world, crossing several stripe boundaries here")
	if err := f.WriteAt(10, data); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAt(10, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read = %q", got)
	}
	if size := f.Stats().Size; size != 10+int64(len(data)) {
		t.Fatalf("size = %d", size)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	fs := testFS(t, 2)
	f, _ := fs.Create("f")
	if err := f.WriteAt(100, []byte{1}); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadAt(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %d", i, b)
		}
	}
}

func TestEmptyAndInvalidRanges(t *testing.T) {
	fs := testFS(t, 2)
	f, _ := fs.Create("f")
	if err := f.WriteAt(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt(-1, []byte{1}); err == nil {
		t.Fatal("negative offset must fail")
	}
	if _, err := f.ReadAt(-1, 5); err == nil {
		t.Fatal("negative read offset must fail")
	}
	if _, err := f.ReadAt(0, -5); err == nil {
		t.Fatal("negative length must fail")
	}
	got, err := f.ReadAt(5, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length read = %v, %v", got, err)
	}
}

func TestStripingUsesAllOSTs(t *testing.T) {
	fs := testFS(t, 4)
	f, _ := fs.Create("f")
	// 8 stripes of data: every OST must see 2 stripes.
	if err := f.WriteAt(0, make([]byte, 8*64)); err != nil {
		t.Fatal(err)
	}
	for i, o := range fs.osts {
		st := o.meter.Stats()
		if st.Bytes != 2*64 {
			t.Fatalf("OST %d got %d bytes, want %d", i, st.Bytes, 2*64)
		}
	}
}

func TestSizeWatermarkMonotonic(t *testing.T) {
	fs := testFS(t, 2)
	f, _ := fs.Create("f")
	f.WriteAt(100, []byte{1})
	f.WriteAt(0, []byte{1})
	if size := f.Stats().Size; size != 101 {
		t.Fatalf("size = %d, want 101", size)
	}
}

// TestConcurrentContiguousWritesAtomic verifies POSIX atomicity: two
// overlapping contiguous writes must not interleave within a single
// call's range.
func TestConcurrentContiguousWritesAtomic(t *testing.T) {
	fs := testFS(t, 2)
	f, _ := fs.Create("f")
	const n = 200 // spans 4 stripes
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			for rep := 0; rep < 10; rep++ {
				if err := f.WriteAt(0, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, err := f.ReadAt(0, n)
	if err != nil {
		t.Fatal(err)
	}
	first := got[0]
	for i, b := range got {
		if b != first {
			t.Fatalf("interleaved write: byte %d = %d, byte 0 = %d", i, b, first)
		}
	}
}

// TestLockedVariantsSkipLocking ensures WriteAtLocked can run under an
// externally held lock without self-deadlock (the MPI-layer pattern).
func TestLockedVariantsSkipLocking(t *testing.T) {
	fs := testFS(t, 2)
	f, _ := fs.Create("f")
	g := f.LockManager().Acquire(lockmgr.WholeFile, lockmgr.Exclusive)
	defer g.Release()
	done := make(chan error, 1)
	go func() {
		done <- f.WriteAtLocked(0, []byte{1, 2, 3})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	data, err := f.ReadAtLocked(0, 3)
	if err != nil || !bytes.Equal(data, []byte{1, 2, 3}) {
		t.Fatalf("read = %v, %v", data, err)
	}
}

func TestFilesAreIsolated(t *testing.T) {
	fs := testFS(t, 2)
	a, _ := fs.Create("a")
	b, _ := fs.Create("b")
	a.WriteAt(0, []byte{0xAA})
	b.WriteAt(0, []byte{0xBB})
	ga, _ := a.ReadAt(0, 1)
	gb, _ := b.ReadAt(0, 1)
	if ga[0] != 0xAA || gb[0] != 0xBB {
		t.Fatalf("cross-file contamination: %x %x", ga[0], gb[0])
	}
}

func TestStatsExposeLockWait(t *testing.T) {
	fs := testFS(t, 2)
	f, _ := fs.Create("f")
	f.WriteAt(0, []byte{1})
	st := f.Stats()
	if st.LockStats.Acquires != 1 {
		t.Fatalf("acquires = %d", st.LockStats.Acquires)
	}
	if st.Size != 1 {
		t.Fatalf("size = %d", st.Size)
	}
}

// TestPropRandomWritesMatchOracle compares the striped file against a
// flat byte-array oracle under a random sequence of serial writes.
func TestPropRandomWritesMatchOracle(t *testing.T) {
	const space = 1024
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fs, err := New(Config{OSTs: 3, StripeSize: 32})
		if err != nil {
			return false
		}
		file, err := fs.Create("f")
		if err != nil {
			return false
		}
		oracle := make([]byte, space)
		for i := 0; i < 20; i++ {
			off := int64(r.Intn(space - 1))
			length := r.Intn(space-int(off)-1) + 1
			data := make([]byte, length)
			r.Read(data)
			if err := file.WriteAt(off, data); err != nil {
				return false
			}
			copy(oracle[off:], data)
		}
		got, err := file.ReadAt(0, space)
		if err != nil {
			return false
		}
		return bytes.Equal(got, oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteAtStripes(b *testing.B) {
	fs, _ := New(Config{OSTs: 8, StripeSize: 4096})
	f, _ := fs.Create("bench")
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.WriteAt(int64(i%16)*int64(len(data)), data); err != nil {
			b.Fatal(err)
		}
	}
}
