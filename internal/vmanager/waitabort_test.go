package vmanager

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/segtree"
)

// waitResult runs WaitPublished(blob=1, v) in a goroutine and returns
// a channel carrying its result, so tests can assert both "woke with
// X" and "did not hang".
func waitResult(m *Manager, v uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- m.WaitPublished(1, v) }()
	return done
}

func mustWake(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("WaitPublished still blocked; abort did not wake the waiter")
		return nil
	}
}

// TestWaitPublishedWakesOnAbort: a waiter blocked on a version that is
// then aborted must wake with nil — the abort publishes the version as
// an empty snapshot, and a waiter left sleeping on it would deadlock
// every writer whose predecessor died.
func TestWaitPublishedWakesOnAbort(t *testing.T) {
	m := newMgr(t)
	tk, err := m.AssignTicket(1, extent.List{{Offset: 0, Length: 64}})
	if err != nil {
		t.Fatal(err)
	}
	done := waitResult(m, tk.Version)
	time.Sleep(10 * time.Millisecond) // let the waiter block
	if err := m.Abort(1, tk.Version); err != nil {
		t.Fatal(err)
	}
	if err := mustWake(t, done); err != nil {
		t.Fatalf("waiter on aborted version woke with %v, want nil", err)
	}
}

// TestWaitPublishedAbortUnblocksSuccessor: a waiter on a completed
// version blocked behind an earlier in-flight ticket must wake when
// that earlier ticket aborts.
func TestWaitPublishedAbortUnblocksSuccessor(t *testing.T) {
	m := newMgr(t)
	t1, _ := m.AssignTicket(1, extent.List{{Offset: 0, Length: 64}})
	t2, _ := m.AssignTicket(1, extent.List{{Offset: 64, Length: 64}})
	if err := m.Complete(1, t2.Version, segtree.NodeKey{Version: t2.Version, Offset: 0, Size: 1024}); err != nil {
		t.Fatal(err)
	}
	done := waitResult(m, t2.Version)
	time.Sleep(10 * time.Millisecond)
	if err := m.Abort(1, t1.Version); err != nil {
		t.Fatal(err)
	}
	if err := mustWake(t, done); err != nil {
		t.Fatalf("waiter behind aborted predecessor woke with %v, want nil", err)
	}
}

// TestWaitPublishedWakesOnBatchedAbort: same contract through the
// group-commit core — an abort applied as part of a group must
// broadcast to waiters exactly like a lone Abort.
func TestWaitPublishedWakesOnBatchedAbort(t *testing.T) {
	m := newMgr(t)
	tk, err := m.AssignTicket(1, extent.List{{Offset: 0, Length: 64}})
	if err != nil {
		t.Fatal(err)
	}
	done := waitResult(m, tk.Version)
	time.Sleep(10 * time.Millisecond)
	res := applyGroup(m.applyPublish, PublishRequest{Blob: 1, Version: tk.Version, Abort: true})
	if res[0].err != nil {
		t.Fatal(res[0].err)
	}
	if err := mustWake(t, done); err != nil {
		t.Fatalf("waiter woke with %v after batched abort, want nil", err)
	}
}

// TestCrashpointSeesLoneCompleteAndAbort: at the default MaxBatch a
// Complete or an Abort is a group of one through the commit core, so
// the crashpoint sees it in flight. Firing once it is applied fails it
// with ErrShardDown and publishes nothing; the kill wakes a parked
// waiter, and Restart recovery-aborts the version, which then reads as
// published.
func TestCrashpointSeesLoneCompleteAndAbort(t *testing.T) {
	for _, abort := range []bool{false, true} {
		t.Run(fmt.Sprintf("abort=%v", abort), func(t *testing.T) {
			m := newMgr(t)
			tk, err := m.AssignTicket(1, extent.List{{Offset: 0, Length: 64}})
			if err != nil {
				t.Fatal(err)
			}
			var seen []int // applied counts, in call order; written under the manager lock
			m.SetCrashpoint(func(group []PublishRequest, applied int) bool {
				if len(group) != 1 || group[0].Version != tk.Version || group[0].Abort != abort {
					t.Errorf("crashpoint saw %+v, want the lone request for v%d (abort=%v)", group, tk.Version, abort)
				}
				seen = append(seen, applied)
				return applied == 1
			})
			done := waitResult(m, tk.Version)
			time.Sleep(10 * time.Millisecond) // let the waiter park; the kill wakes it either way
			if abort {
				err = m.Abort(1, tk.Version)
			} else {
				err = m.Complete(1, tk.Version, segtree.NodeKey{Version: tk.Version, Offset: 0, Size: 1024})
			}
			if !errors.Is(err, ErrShardDown) {
				t.Fatalf("crashed request returned %v, want ErrShardDown", err)
			}
			if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
				t.Fatalf("crashpoint saw applied counts %v, want [0 1]", seen)
			}
			if err := mustWake(t, done); !errors.Is(err, ErrShardDown) {
				t.Fatalf("parked waiter woke with %v, want ErrShardDown", err)
			}
			if st := m.Status(0); !st.Down || st.Published != 0 {
				t.Fatalf("after the crash: %+v, want down with nothing published", st)
			}
			aborted := m.Restart()
			if len(aborted) != 1 || aborted[0] != (VersionRef{Blob: 1, Version: tk.Version}) {
				t.Fatalf("restart aborted %v, want [{1 %d}]", aborted, tk.Version)
			}
			if err := mustWake(t, waitResult(m, tk.Version)); err != nil {
				t.Fatalf("recovery-aborted version waits with %v, want nil", err)
			}
			info, err := m.LatestPublished(1)
			if err != nil {
				t.Fatal(err)
			}
			if info.Version != tk.Version || info.Root != (segtree.NodeKey{}) {
				t.Fatalf("latest %+v, want v%d as the empty snapshot", info, tk.Version)
			}
		})
	}
}

// TestWaitPublishedWakesOnKill: killing the manager must wake blocked
// waiters with ErrShardDown rather than stranding them, and a version
// that already published stays reported as published even when the
// manager is down (ErrShardDown strictly means "not committed").
func TestWaitPublishedWakesOnKill(t *testing.T) {
	m := newMgr(t)
	t1, _ := m.AssignTicket(1, extent.List{{Offset: 0, Length: 64}})
	if err := m.Complete(1, t1.Version, segtree.NodeKey{Version: t1.Version, Offset: 0, Size: 1024}); err != nil {
		t.Fatal(err)
	}
	t2, _ := m.AssignTicket(1, extent.List{{Offset: 64, Length: 64}})
	done := waitResult(m, t2.Version)
	time.Sleep(10 * time.Millisecond)
	m.Kill()
	if err := mustWake(t, done); !errors.Is(err, ErrShardDown) {
		t.Fatalf("waiter on killed manager woke with %v, want ErrShardDown", err)
	}
	if err := m.WaitPublished(1, t1.Version); err != nil {
		t.Fatalf("published version reported %v on a down manager, want nil", err)
	}
}

// TestWaitPublishedWakesOnRestartRecovery: a waiter blocked across a
// kill/restart cycle is woken by the kill; a fresh waiter after
// Restart sees the recovery abort as published.
func TestWaitPublishedWakesOnRestartRecovery(t *testing.T) {
	m := New(iosim.CostModel{})
	if err := m.CreateBlob(1, segtree.Geometry{Capacity: 1024, Page: 64}); err != nil {
		t.Fatal(err)
	}
	tk, _ := m.AssignTicket(1, extent.List{{Offset: 0, Length: 64}})
	m.Kill()
	aborted := m.Restart()
	if len(aborted) != 1 || aborted[0] != (VersionRef{Blob: 1, Version: tk.Version}) {
		t.Fatalf("restart aborted %v, want [{1 %d}]", aborted, tk.Version)
	}
	if err := mustWake(t, waitResult(m, tk.Version)); err != nil {
		t.Fatalf("recovery-aborted version waits with %v, want nil (published as empty)", err)
	}
}
