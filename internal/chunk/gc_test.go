package chunk

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestStoreDeleteAndUsage(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			k1 := Key{Blob: 1, Version: 1, Index: 0}
			k2 := Key{Blob: 1, Version: 2, Index: 0}
			if err := s.Put(k1, make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(k2, make([]byte, 50)); err != nil {
				t.Fatal(err)
			}
			if n, b := s.Usage(); n != 2 || b != 150 {
				t.Fatalf("usage = %d chunks / %d bytes, want 2 / 150", n, b)
			}
			if err := s.Delete(k1); err != nil {
				t.Fatal(err)
			}
			if n, b := s.Usage(); n != 1 || b != 50 {
				t.Fatalf("after delete: usage = %d / %d, want 1 / 50", n, b)
			}
			if _, err := s.Get(k1, 0, 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("get deleted = %v, want ErrNotFound", err)
			}
			if err := s.Delete(k1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete = %v, want ErrNotFound", err)
			}
			// A deleted key may be stored again (the store no longer
			// holds it, so immutability is not violated).
			if err := s.Put(k1, make([]byte, 10)); err != nil {
				t.Fatalf("re-put after delete: %v", err)
			}
			if got, err := s.Len(k1); err != nil || got != 10 {
				t.Fatalf("re-put len = %d, %v", got, err)
			}
		})
	}
}

func TestDiskStoreDeleteRemovesFile(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := Key{Blob: 3, Version: 4, Index: 5}
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key.String())
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("chunk file survives delete: %v", err)
	}
	// A reloaded store must agree the chunk is gone.
	s2, err := NewDiskStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, b := s2.Usage(); n != 0 || b != 0 {
		t.Fatalf("reloaded usage = %d / %d after delete", n, b)
	}
}

func TestFaultStoreDeleteDown(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	key := Key{Blob: 1}
	if err := f.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.SetDown(true)
	if err := f.Delete(key); !errors.Is(err, ErrDown) {
		t.Fatalf("delete on down store = %v, want ErrDown", err)
	}
	// Accounting still answers (out-of-band bookkeeping).
	if n, b := f.Usage(); n != 1 || b != 1 {
		t.Fatalf("usage while down = %d / %d", n, b)
	}
	f.SetDown(false)
	if err := f.Delete(key); err != nil {
		t.Fatal(err)
	}
}
