package torture

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/extent"
	"repro/internal/verify"
)

// countingDriver is a write sink for the race tests: it counts calls
// and fails the ones whose stamp byte is in failIDs.
type countingDriver struct {
	writes  atomic.Int64
	mu      sync.Mutex
	failIDs map[byte]bool
}

func (d *countingDriver) Name() string         { return "counting" }
func (d *countingDriver) Size() (int64, error) { return 0, nil }
func (d *countingDriver) ReadList(q extent.List, atomic bool) ([]byte, error) {
	return make([]byte, q.TotalLength()), nil
}

func (d *countingDriver) WriteList(vec extent.Vec, atomic bool) error {
	d.writes.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failIDs[vec.Buf[0]] {
		return errors.New("injected write failure")
	}
	return nil
}

// TestRaceFiresEventOnceAtThreshold: with one writer the race is a
// sequence, so the event must fire right after the afterCalls-th call
// and never again; with many writers it must still fire exactly once,
// no earlier than the threshold.
func TestRaceFiresEventOnceAtThreshold(t *testing.T) {
	for _, writers := range []int{1, 8} {
		cfg := tortureConfig(1)
		cfg.Writers, cfg.CallsPerWriter = writers, 32/writers
		perWriter, err := cfg.Calls()
		if err != nil {
			t.Fatal(err)
		}
		d := &countingDriver{}
		const after = 10
		fired, writesAtFire := 0, int64(0)
		ok, failures := race(d, perWriter, after, func() {
			fired++
			writesAtFire = d.writes.Load()
		})
		if fired != 1 {
			t.Fatalf("writers=%d: event fired %d times, want exactly 1", writers, fired)
		}
		if writers == 1 && writesAtFire != after {
			t.Fatalf("sequential race fired the event after %d writes, want %d", writesAtFire, after)
		}
		if writesAtFire < after {
			t.Fatalf("writers=%d: event fired after %d writes, before the threshold %d", writers, writesAtFire, after)
		}
		if len(ok) != 32 || len(failures) != 0 {
			t.Fatalf("writers=%d: %d ok + %d failed, want 32 + 0", writers, len(ok), len(failures))
		}
	}
}

// TestRaceFiresEventPastTheEnd: a threshold the workload never reaches
// still fires the event — once, after the last write — so a schedule's
// checks never run against an unfaulted system.
func TestRaceFiresEventPastTheEnd(t *testing.T) {
	perWriter, err := tortureConfig(2).Calls()
	if err != nil {
		t.Fatal(err)
	}
	d := &countingDriver{}
	fired, writesAtFire := 0, int64(0)
	race(d, perWriter, 1000, func() {
		fired++
		writesAtFire = d.writes.Load()
	})
	if fired != 1 || writesAtFire != 32 {
		t.Fatalf("event fired %d times at %d writes, want once after all 32", fired, writesAtFire)
	}
}

// TestRaceCollectsFailures: a failed write is reported, not fatal —
// its writer carries on, every call is attempted, and each lands in
// exactly one of the two result lists.
func TestRaceCollectsFailures(t *testing.T) {
	perWriter, err := tortureConfig(3).Calls()
	if err != nil {
		t.Fatal(err)
	}
	// Fail the first call of every writer (IDs are writer-major).
	d := &countingDriver{failIDs: map[byte]bool{}}
	for _, calls := range perWriter {
		d.failIDs[verify.StampByte(calls[0].ID)] = true
	}
	ok, failures := race(d, perWriter, 0, func() {})
	if got := d.writes.Load(); got != 32 {
		t.Fatalf("%d of 32 calls attempted — a failure stopped its writer", got)
	}
	if len(failures) != len(perWriter) || len(ok) != 32-len(perWriter) {
		t.Fatalf("%d ok + %d failed, want %d + %d", len(ok), len(failures), 32-len(perWriter), len(perWriter))
	}
	for _, call := range ok {
		if d.failIDs[verify.StampByte(call.ID)] {
			t.Fatalf("failed call %d reported as committed", call.ID)
		}
	}
}

// TestTickUntil: the loop stops at the first tick its condition holds
// and reports which; a condition that never holds costs exactly max
// ticks of virtual time and returns the not-converged sentinel.
func TestTickUntil(t *testing.T) {
	rg, err := boot(selfHealEnv(4, 2), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if got := rg.tickUntil(7, func() bool { calls++; return calls == 3 }); got != 3 {
		t.Fatalf("tickUntil = %d, want 3", got)
	}
	if got := rg.tickUntil(5, func() bool { return false }); got != bench.NotConverged {
		t.Fatalf("tickUntil = %d on a condition that never holds, want NotConverged", got)
	}
	if got := rg.clock.Now().Unix(); got != 3+5 {
		t.Fatalf("virtual clock at %ds after 8 ticks", got)
	}
	if ticks := rg.svc.Healer.Stats().Ticks; ticks != 8 {
		t.Fatalf("healer ticked %d times, want 8", ticks)
	}
}

// rejectsBadPools holds a schedule to the rig's shape contract: a pool
// the deployment cannot be built on is refused with an error — never a
// panic out of a plan drawn from it.
func rejectsBadPools(t *testing.T, run func(providers, replicas int) error) {
	t.Helper()
	for _, shape := range []struct{ providers, replicas int }{
		{1, 2}, // one provider
		{2, 3}, // replicas exceed providers
	} {
		if err := run(shape.providers, shape.replicas); err == nil {
			t.Fatalf("accepted %d replicas on %d providers", shape.replicas, shape.providers)
		}
	}
}
