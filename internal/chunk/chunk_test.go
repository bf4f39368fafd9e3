package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/iosim"
)

func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDiskStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMemStore(nil),
		"disk": disk,
	}
}

func TestStorePutGet(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Blob: 1, Version: 7, Index: 3}
			data := []byte("hello chunk store")
			if err := s.Put(key, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(key, 0, int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Get = %q, want %q", got, data)
			}
			part, err := s.Get(key, 6, 5)
			if err != nil {
				t.Fatal(err)
			}
			if string(part) != "chunk" {
				t.Fatalf("partial Get = %q", part)
			}
			n, err := s.Len(key)
			if err != nil || n != int64(len(data)) {
				t.Fatalf("Len = %d, %v", n, err)
			}
			if s.Count() != 1 {
				t.Fatalf("Count = %d", s.Count())
			}
		})
	}
}

func TestStoreImmutability(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Blob: 2, Version: 1, Index: 0}
			if err := s.Put(key, []byte("a")); err != nil {
				t.Fatal(err)
			}
			err := s.Put(key, []byte("b"))
			if !errors.Is(err, ErrExists) {
				t.Fatalf("double Put err = %v, want ErrExists", err)
			}
			got, err := s.Get(key, 0, 1)
			if err != nil || got[0] != 'a' {
				t.Fatalf("original data must survive: %q, %v", got, err)
			}
		})
	}
}

func TestStoreNotFound(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			_, err := s.Get(Key{Blob: 9}, 0, 1)
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
			_, err = s.Len(Key{Blob: 9})
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("Len err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreRangeChecks(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			key := Key{Blob: 3}
			if err := s.Put(key, make([]byte, 10)); err != nil {
				t.Fatal(err)
			}
			for _, rng := range [][2]int64{{-1, 2}, {0, 11}, {5, 6}, {0, -1}} {
				if _, err := s.Get(key, rng[0], rng[1]); err == nil {
					t.Fatalf("range %v should fail", rng)
				}
			}
		})
	}
}

// TestMemStoreCopiesData: Get hands out a copy. (Put keeps what it is
// handed; TestStoreOwnership holds every backend to that contract.)
func TestMemStoreCopiesData(t *testing.T) {
	s := NewMemStore(nil)
	key := Key{Blob: 1}
	if err := s.Put(key, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(key, 0, 3)
	got[1] = 88 // reader mutates the returned buffer
	got2, _ := s.Get(key, 0, 3)
	if got2[1] != 2 {
		t.Fatal("store must not alias reader buffer")
	}
}

// A streamed put's declared size arrives off the wire. One that
// declares a gigabyte and then delivers nothing must cost the store its
// preallocation at the most, not the gigabyte, and leave the key absent;
// one that declares more than the preallocation and delivers it is
// stored whole, in a buffer no larger than it.
func TestMemStorePutFromReaderAllocatesBehindArrivals(t *testing.T) {
	s := NewMemStore(nil)
	key := Key{Blob: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := s.PutFromReader(key, 1<<30, bytes.NewReader(nil))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a put of 1 GiB declared, 0 bytes delivered, succeeded")
	}
	if _, lerr := s.Len(key); !errors.Is(lerr, ErrNotFound) {
		t.Fatalf("the failed put left the key behind: %v", lerr)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > memPutPrealloc+64<<10 {
		t.Fatalf("a forged size made the store allocate %d bytes; the bound is %d", got, memPutPrealloc)
	}

	// Past the preallocation: delivered whole, and delivered short.
	payload := make([]byte, 2*memPutPrealloc+1000)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := s.PutFromReader(key, int64(len(payload)), bytes.NewReader(payload)); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	stored := s.chunks[key]
	s.mu.RUnlock()
	if !bytes.Equal(stored, payload) || cap(stored) != len(payload) {
		t.Fatalf("stored %d bytes (cap %d) of %d, or other bytes", len(stored), cap(stored), len(payload))
	}
	// Short is short wherever the stream stops: a byte from the end, or
	// exactly where the buffer is grown.
	short := Key{Blob: 2}
	for _, delivered := range []int{len(payload) - 1, memPutPrealloc, 2 * memPutPrealloc} {
		if err := s.PutFromReader(short, int64(len(payload)), bytes.NewReader(payload[:delivered])); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("a put of %d bytes declared, %d delivered: %v", len(payload), delivered, err)
		}
		if _, lerr := s.Len(short); !errors.Is(lerr, ErrNotFound) {
			t.Fatalf("the short put (%d delivered) left the key behind: %v", delivered, lerr)
		}
	}
}

func TestDiskStoreReload(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Blob: 5, Version: 2, Index: 1}
	if err := s1.Put(key, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// Re-open: the size index must be rebuilt from the directory.
	s2, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get(key, 0, 9)
	if err != nil || string(got) != "persisted" {
		t.Fatalf("reload Get = %q, %v", got, err)
	}
	if s2.Count() != 1 {
		t.Fatalf("reload Count = %d", s2.Count())
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	s := NewMemStore(nil)
	var wg sync.WaitGroup
	const n = 64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := Key{Blob: 1, Version: uint64(i), Index: 0}
			if err := s.Put(key, []byte{byte(i)}); err != nil {
				t.Errorf("Put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if s.Count() != n {
		t.Fatalf("Count = %d, want %d", s.Count(), n)
	}
	for i := 0; i < n; i++ {
		got, err := s.Get(Key{Blob: 1, Version: uint64(i)}, 0, 1)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("Get %d = %v, %v", i, got, err)
		}
	}
}

func TestMeterIsCharged(t *testing.T) {
	meter := iosim.NewMeter(iosim.CostModel{}, true)
	s := NewMemStore(meter)
	key := Key{Blob: 1}
	if err := s.Put(key, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key, 0, 40); err != nil {
		t.Fatal(err)
	}
	st := meter.Stats()
	if st.Ops != 2 || st.Bytes != 140 {
		t.Fatalf("meter stats = %+v", st)
	}
}

func TestRefMarshalRoundTrip(t *testing.T) {
	f := func(blob, ver uint64, idx uint32, off, length int64) bool {
		r := Ref{Key: Key{Blob: blob, Version: ver, Index: idx}, Offset: off, Length: length}
		got, err := DecodeRef(r.Append(nil))
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRefMarshalLegacyForm(t *testing.T) {
	// Every ref is the fixed 36-byte pre-replication encoding, appended
	// where the caller's buffer ends.
	r := Ref{Key: Key{Blob: 1, Version: 2, Index: 3}, Offset: 4, Length: 5}
	b := r.Append([]byte("head"))
	if len(b) != 4+RefLen || RefLen != 36 {
		t.Fatalf("ref appends %d bytes, want 36", len(b)-4)
	}
	got, err := DecodeRef(b[4:])
	if err != nil || got != r {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
}

func TestDecodeRefShort(t *testing.T) {
	r := Ref{Key: Key{Blob: 1}, Length: 1}
	full := r.Append(nil)
	for _, n := range []int{0, 10, RefLen - 1} {
		if got, err := DecodeRef(full[:n]); err == nil || !strings.Contains(err.Error(), "too short") {
			t.Errorf("%d bytes: %+v, %v, want a too-short error", n, got, err)
		}
	}
	// A ref with something behind it decodes from its head and leaves
	// the rest to its caller.
	if got, err := DecodeRef(append(bytes.Clone(full), "next"...)); err != nil || got != r {
		t.Fatalf("DecodeRef with a tail = %+v, %v", got, err)
	}
}

// FuzzUnmarshalRef: arbitrary bytes never panic the ref decoder,
// DecodeRef; it accepts exactly the inputs of RefLen bytes or more, and
// what it accepts is what Append writes for the ref it returned, then
// whatever followed. The seed corpus (testdata/fuzz) holds a ref alone,
// refs followed by the bytes the old leaf format put behind them (a
// replica count and IDs, a zero count) and one byte too few.
func FuzzUnmarshalRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRef(b)
		if (err == nil) != (len(b) >= RefLen) {
			t.Fatalf("DecodeRef of %d bytes: %v", len(b), err)
		}
		if err != nil {
			return
		}
		if enc := r.Append(nil); !bytes.Equal(enc, b[:RefLen]) {
			t.Fatalf("accepted %x, which decodes to %+v, which marshals to %x", b, r, enc)
		}
	})
}

func TestKeyString(t *testing.T) {
	k := Key{Blob: 1, Version: 2, Index: 3}
	if k.String() != "b1-v2-c3" {
		t.Fatalf("String = %q", k.String())
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = s1
	// Drop a foreign file and reload.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not a chunk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 0 {
		t.Fatalf("foreign files must be ignored, Count = %d", s2.Count())
	}
}

func TestPropStoreRandomRanges(t *testing.T) {
	s := NewMemStore(nil)
	r := rand.New(rand.NewSource(42))
	const size = 1024
	data := make([]byte, size)
	r.Read(data)
	key := Key{Blob: 77}
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		off := int64(r.Intn(size))
		length := int64(r.Intn(size - int(off)))
		got, err := s.Get(key, off, length)
		if err != nil {
			t.Fatalf("Get(%d,%d): %v", off, length, err)
		}
		if !bytes.Equal(got, data[off:off+length]) {
			t.Fatalf("range [%d,%d) mismatch", off, off+length)
		}
	}
}

func BenchmarkMemStorePut(b *testing.B) {
	s := NewMemStore(nil)
	data := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := Key{Blob: 1, Version: uint64(i)}
		if err := s.Put(key, data); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleRef() {
	r := Ref{Key: Key{Blob: 1, Version: 4, Index: 2}, Offset: 128, Length: 64}
	back, _ := DecodeRef(r.Append(nil))
	fmt.Println(back.Key, back.Offset, back.Length)
	// Output: b1-v4-c2 128 64
}
