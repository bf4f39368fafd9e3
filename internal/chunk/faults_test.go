package chunk

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestFaultStorePassThrough(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	key := Key{Blob: 1}
	if err := f.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err := f.Get(key, 0, 1)
	if err != nil || got[0] != 'x' {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if n, err := f.Len(key); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	if f.Count() != 1 {
		t.Fatalf("Count = %d", f.Count())
	}
}

func TestFaultStoreInjectsPutFailures(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	f.FailNextPuts(2)
	if err := f.Put(Key{Blob: 1}, []byte("a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if err := f.Put(Key{Blob: 2}, []byte("b")); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// Third put succeeds.
	if err := f.Put(Key{Blob: 3}, []byte("c")); err != nil {
		t.Fatal(err)
	}
}

func TestFaultStoreInjectsGetFailures(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	key := Key{Blob: 1}
	if err := f.Put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	f.FailNextGets(1)
	if _, err := f.Get(key, 0, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Get(key, 0, 1); err != nil {
		t.Fatalf("recovered Get err = %v", err)
	}
}

func TestFaultStoreDownMode(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	key := Key{Blob: 1}
	if err := f.Put(key, []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	f.SetDown(true)
	// Down is permanent, not a counter: every operation keeps failing.
	for i := 0; i < 3; i++ {
		if err := f.Put(Key{Blob: uint64(10 + i)}, []byte("x")); !errors.Is(err, ErrDown) {
			t.Fatalf("Put %d err = %v, want ErrDown", i, err)
		}
		if _, err := f.Get(key, 0, 1); !errors.Is(err, ErrDown) {
			t.Fatalf("Get %d err = %v, want ErrDown", i, err)
		}
		if _, err := f.Len(key); !errors.Is(err, ErrDown) {
			t.Fatalf("Len %d err = %v, want ErrDown", i, err)
		}
	}
	// Revival: the chunks written before the outage are intact.
	f.SetDown(false)
	got, err := f.Get(key, 0, 8)
	if err != nil || string(got) != "survivor" {
		t.Fatalf("Get after revival = %q, %v", got, err)
	}
}

func TestFaultStoreDownTrumpsCounters(t *testing.T) {
	// Down mode fails operations without consuming armed fail-next
	// counters: a dead machine is not "using up" transient faults.
	f := NewFaultStore(NewMemStore(nil))
	f.FailNextPuts(1)
	f.SetDown(true)
	if err := f.Put(Key{Blob: 1}, []byte("x")); !errors.Is(err, ErrDown) {
		t.Fatalf("err = %v, want ErrDown", err)
	}
	f.SetDown(false)
	if err := f.Put(Key{Blob: 2}, []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("counter err = %v, want ErrInjected still armed", err)
	}
}

func TestFaultStoreConcurrentArming(t *testing.T) {
	f := NewFaultStore(NewMemStore(nil))
	const n = 32
	f.FailNextPuts(n / 2)
	var failed, ok int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := f.Put(Key{Blob: uint64(i)}, []byte{1})
			mu.Lock()
			if err != nil {
				failed++
			} else {
				ok++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if failed != n/2 || ok != n/2 {
		t.Fatalf("failed=%d ok=%d, want exactly %d each", failed, ok, n/2)
	}
}

// TestFaultStoreHoldsAPut: the nth put from arming stops before the inner
// store until released, the puts before it pass, and release decides
// whether it fails (storing nothing) or lands — for Put and for
// PutFromReader alike.
func TestFaultStoreHoldsAPut(t *testing.T) {
	for _, fail := range []bool{true, false} {
		f := NewFaultStore(NewMemStore(nil))
		held, release := f.HoldPut(2)
		if err := f.Put(Key{Blob: 1}, []byte("a")); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- f.PutFromReader(Key{Blob: 2}, 1, strings.NewReader("b")) }()
		<-held
		if f.Count() != 1 {
			t.Fatalf("a held put reached the store: %d chunks", f.Count())
		}
		release(fail)
		err := <-done
		if _, lenErr := f.Len(Key{Blob: 2}); fail != errors.Is(err, ErrInjected) || fail == (lenErr == nil) {
			t.Fatalf("released with fail=%v: put err %v, chunk present %v", fail, err, lenErr == nil)
		}
		if err := f.Put(Key{Blob: 3}, []byte("c")); err != nil {
			t.Fatalf("the hold is one-shot, yet the next put failed: %v", err)
		}
	}
}
