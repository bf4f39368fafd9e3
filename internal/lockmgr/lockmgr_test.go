package lockmgr

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/extent"
	"repro/internal/iosim"
)

func TestAcquireReleaseBasic(t *testing.T) {
	m := New(iosim.CostModel{})
	g := m.Acquire(extent.Extent{Offset: 0, Length: 100}, Exclusive)
	if heldCount(m) != 1 {
		t.Fatalf("held = %d", heldCount(m))
	}
	g.Release()
	if heldCount(m) != 0 {
		t.Fatalf("held after release = %d", heldCount(m))
	}
	// Double release is a no-op.
	g.Release()
	if got := m.Stats().Acquires; got != 1 {
		t.Fatalf("acquires = %d", got)
	}
}

func TestNonOverlappingProceedConcurrently(t *testing.T) {
	m := New(iosim.CostModel{})
	g1 := m.Acquire(extent.Extent{Offset: 0, Length: 100}, Exclusive)
	done := make(chan struct{})
	go func() {
		g2 := m.Acquire(extent.Extent{Offset: 100, Length: 100}, Exclusive) // disjoint: must not block
		g2.Release()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("disjoint acquire blocked")
	}
	g1.Release()
}

func TestOverlappingBlocks(t *testing.T) {
	m := New(iosim.CostModel{})
	g1 := m.Acquire(extent.Extent{Offset: 0, Length: 100}, Exclusive)
	acquired := make(chan struct{})
	go func() {
		g2 := m.Acquire(extent.Extent{Offset: 50, Length: 100}, Exclusive)
		close(acquired)
		g2.Release()
	}()
	select {
	case <-acquired:
		t.Fatal("overlapping acquire did not block")
	case <-time.After(50 * time.Millisecond):
	}
	g1.Release()
	select {
	case <-acquired:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked acquire never granted")
	}
}

func TestMutualExclusionCounter(t *testing.T) {
	m := New(iosim.CostModel{})
	var inCrit atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				g := m.Acquire(extent.Extent{Offset: 40, Length: 20}, Exclusive)
				if inCrit.Add(1) != 1 {
					violations.Add(1)
				}
				inCrit.Add(-1)
				g.Release()
			}
		}()
	}
	wg.Wait()
	if violations.Load() != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
}

func TestFIFOFairnessNoStarvation(t *testing.T) {
	m := New(iosim.CostModel{})
	g := m.Acquire(extent.Extent{Offset: 0, Length: 10}, Exclusive)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gi := m.Acquire(extent.Extent{Offset: 0, Length: 10}, Exclusive)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			gi.Release()
		}(i)
		time.Sleep(20 * time.Millisecond) // establish queue order
	}
	g.Release()
	wg.Wait()
	for i := range order {
		if order[i] != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

// TestFIFOBlocksLaterDisjointBehindConflicting pins the fairness rule:
// a later request conflicting with an earlier *queued* request waits,
// preserving FIFO among conflicts.
func TestWaitStatsAccumulate(t *testing.T) {
	m := New(iosim.CostModel{})
	g := m.Acquire(extent.Extent{Offset: 0, Length: 10}, Exclusive)
	done := make(chan struct{})
	go func() {
		g2 := m.Acquire(extent.Extent{Offset: 0, Length: 10}, Exclusive)
		g2.Release()
		close(done)
	}()
	time.Sleep(30 * time.Millisecond)
	g.Release()
	<-done
	st := m.Stats()
	if st.Acquires != 2 {
		t.Fatalf("acquires = %d", st.Acquires)
	}
	if st.TotalWait < 25*time.Millisecond {
		t.Fatalf("wait time %v not recorded", st.TotalWait)
	}
	if st.MaxQueue < 1 {
		t.Fatalf("max queue = %d", st.MaxQueue)
	}
}

func TestAcquireListOrderedNoDeadlock(t *testing.T) {
	m := New(iosim.CostModel{})
	// Two goroutines lock the same two ranges given in opposite order;
	// ordered acquisition must prevent deadlock.
	l1 := extent.List{{Offset: 0, Length: 10}, {Offset: 100, Length: 10}}
	l2 := extent.List{{Offset: 100, Length: 10}, {Offset: 0, Length: 10}}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ReleaseAll(m.AcquireList(l1, Exclusive))
		}()
		go func() {
			defer wg.Done()
			ReleaseAll(m.AcquireList(l2, Exclusive))
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AcquireList deadlocked")
	}
	if heldCount(m) != 0 {
		t.Fatalf("leaked %d locks", heldCount(m))
	}
}

func TestWholeFileLockSerializesEverything(t *testing.T) {
	m := New(iosim.CostModel{})
	g := m.Acquire(WholeFile, Exclusive)
	blocked := make(chan struct{})
	go func() {
		g2 := m.Acquire(extent.Extent{Offset: 1 << 40, Length: 10}, Exclusive)
		close(blocked)
		g2.Release()
	}()
	select {
	case <-blocked:
		t.Fatal("whole-file lock did not cover far offset")
	case <-time.After(50 * time.Millisecond):
	}
	g.Release()
	<-blocked
}

func TestMeterCharged(t *testing.T) {
	m := New(iosim.CostModel{})
	g := m.Acquire(extent.Extent{Offset: 0, Length: 1}, Exclusive)
	g.Release()
	if got := m.meter.Stats().Ops; got != 2 { // acquire + release
		t.Fatalf("meter ops = %d, want 2", got)
	}
}

// TestAcquireListCrossingListsNoDeadlock pins the deadlock the
// atomicity torture suite found in the incremental AcquireList: with
// FIFO fairness, writer A holding X1 and queueing for X2 behind B's
// pending request deadlocks when B's request waits on X1. Atomic
// (all-or-nothing) list granting must survive crossing lists under
// heavy concurrency.
func TestAcquireListCrossingListsNoDeadlock(t *testing.T) {
	m := New(iosim.CostModel{})
	// Interlocking lists: A's second range overlaps B's first, B's
	// second overlaps A's first — the hold-and-wait cycle shape.
	la := extent.List{{Offset: 0, Length: 20}, {Offset: 40, Length: 20}}
	lb := extent.List{{Offset: 10, Length: 40}}
	lc := extent.List{{Offset: 30, Length: 20}, {Offset: 70, Length: 10}}
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		for _, l := range []extent.List{la, lb, lc} {
			wg.Add(1)
			go func(l extent.List) {
				defer wg.Done()
				ReleaseAll(m.AcquireList(l, Exclusive))
			}(l)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("crossing AcquireList deadlocked")
	}
	if heldCount(m) != 0 {
		t.Fatalf("leaked %d locks", heldCount(m))
	}
}

// An AcquireList grant must be atomic: while any range of the list is
// held, no conflicting single acquire may slip in between the list's
// ranges.
func TestAcquireListGrantsAtomically(t *testing.T) {
	m := New(iosim.CostModel{})
	grants := m.AcquireList(extent.List{{Offset: 0, Length: 10}, {Offset: 50, Length: 10}}, Exclusive)
	acquired := make(chan struct{})
	go func() {
		g := m.Acquire(extent.Extent{Offset: 55, Length: 2}, Exclusive)
		close(acquired)
		g.Release()
	}()
	select {
	case <-acquired:
		t.Fatal("conflicting acquire succeeded while list grant held")
	case <-time.After(50 * time.Millisecond):
	}
	ReleaseAll(grants)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("acquire never granted after list release")
	}
	if len(grants) == 0 {
		t.Fatal("empty grant slice for non-empty list")
	}
}

// heldCount is the number of locks m holds.
func heldCount(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held)
}
