package vmanager

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/segtree"
)

func newTestManager(t *testing.T, cfg BatchConfig) *Manager {
	t.Helper()
	m := New(iosim.CostModel{})
	m.SetBatching(cfg)
	if err := m.CreateBlob(1, segtree.Geometry{Capacity: 1 << 20, Page: 1 << 12}); err != nil {
		t.Fatalf("CreateBlob: %v", err)
	}
	return m
}

func ext(off, length int64) extent.List {
	return extent.List{{Offset: off, Length: length}}
}

// applyGroup hands reqs to a commit-core apply function as one group
// and returns the group with each request's outcome filled in.
func applyGroup[Req, Resp any](apply func([]*pending[Req, Resp]), reqs ...Req) []*pending[Req, Resp] {
	group := make([]*pending[Req, Resp], len(reqs))
	for i, r := range reqs {
		group[i] = &pending[Req, Resp]{req: r}
	}
	apply(group)
	return group
}

// Concurrent batched writers must receive dense, unique tickets and
// publish cleanly, for every batch size.
func TestBatchedAssignCompleteConcurrent(t *testing.T) {
	for _, mb := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("maxbatch=%d", mb), func(t *testing.T) {
			m := newTestManager(t, BatchConfig{MaxBatch: mb, MaxDelay: 100 * time.Microsecond})
			const writers = 32
			versions := make([]uint64, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tk, err := m.AssignTicket(1, ext(int64(w)*100, 200))
					if err != nil {
						t.Errorf("AssignTicket: %v", err)
						return
					}
					versions[w] = tk.Version
					if err := m.Complete(1, tk.Version, segtree.NodeKey{Version: tk.Version}); err != nil {
						t.Errorf("Complete: %v", err)
						return
					}
					if err := m.WaitPublished(1, tk.Version); err != nil {
						t.Errorf("WaitPublished: %v", err)
					}
				}(w)
			}
			wg.Wait()
			seen := make(map[uint64]bool)
			for _, v := range versions {
				if v == 0 || v > writers || seen[v] {
					t.Fatalf("tickets not dense/unique: %v", versions)
				}
				seen[v] = true
			}
			info, err := m.LatestPublished(1)
			if err != nil {
				t.Fatalf("LatestPublished: %v", err)
			}
			if info.Version != writers {
				t.Fatalf("published %d, want %d", info.Version, writers)
			}
		})
	}
}

// Borrow answers inside one group must reflect earlier group members:
// a batched assign over the same range must chain borrows exactly like
// sequential unbatched assigns.
func TestBatchedBorrowsSeeEarlierGroupMembers(t *testing.T) {
	m := newTestManager(t, BatchConfig{})
	reqs := make([]ticketReq, 4)
	for i := range reqs {
		reqs[i] = ticketReq{blob: 1, ext: ext(0, 1<<12)}
	}
	res := applyGroup(m.applyTickets, reqs...)
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("req %d: %v", i, r.err)
		}
		if r.resp.Version != uint64(i+1) {
			t.Fatalf("req %d: version %d, want %d", i, r.resp.Version, i+1)
		}
		var max uint64
		for _, b := range r.resp.Borrows {
			if b > max {
				max = b
			}
		}
		if want := uint64(i); max != want {
			t.Fatalf("req %d: max borrow %d, want %d", i, max, want)
		}
	}
}

// A bad request inside a batch must fail alone, without poisoning its
// peers or consuming a ticket.
func TestBatchPartialFailure(t *testing.T) {
	m := newTestManager(t, BatchConfig{})
	res := applyGroup(m.applyTickets,
		ticketReq{blob: 1, ext: ext(0, 100)},
		ticketReq{blob: 99, ext: ext(0, 100)},    // unknown blob
		ticketReq{blob: 1, ext: nil},             // empty write
		ticketReq{blob: 1, ext: ext(1<<20, 100)}, // beyond capacity
		ticketReq{blob: 1, ext: ext(50, 100)},    // fine again
	)
	if res[0].err != nil || res[4].err != nil {
		t.Fatalf("good requests failed: %v, %v", res[0].err, res[4].err)
	}
	if !errors.Is(res[1].err, ErrUnknownBlob) {
		t.Fatalf("req 1: %v, want ErrUnknownBlob", res[1].err)
	}
	if !errors.Is(res[2].err, ErrEmptyWrite) {
		t.Fatalf("req 2: %v, want ErrEmptyWrite", res[2].err)
	}
	if !errors.Is(res[3].err, segtree.ErrOutOfRange) {
		t.Fatalf("req 3: %v, want ErrOutOfRange", res[3].err)
	}
	if res[0].resp.Version != 1 || res[4].resp.Version != 2 {
		t.Fatalf("good requests got versions %d, %d; want contiguous 1, 2",
			res[0].resp.Version, res[4].resp.Version)
	}

	pubs := applyGroup(m.applyPublish,
		PublishRequest{Blob: 1, Version: 1, Root: segtree.NodeKey{Version: 1}},
		PublishRequest{Blob: 1, Version: 7},              // unassigned
		PublishRequest{Blob: 1, Version: 2, Abort: true}, // abort mid-batch
		PublishRequest{Blob: 1, Version: 1},              // double complete
	)
	if pubs[0].err != nil {
		t.Fatalf("complete 1: %v", pubs[0].err)
	}
	if pubs[1].err == nil {
		t.Fatal("complete of unassigned version succeeded")
	}
	if pubs[2].err != nil {
		t.Fatalf("abort 2: %v", pubs[2].err)
	}
	if !errors.Is(pubs[3].err, ErrDoubleComplete) {
		t.Fatalf("double complete: %v, want ErrDoubleComplete", pubs[3].err)
	}
	info, err := m.LatestPublished(1)
	if err != nil {
		t.Fatalf("LatestPublished: %v", err)
	}
	if info.Version != 2 {
		t.Fatalf("published %d, want 2 (aborted version publishes empty)", info.Version)
	}
	// The aborted version resolves to its predecessor's root.
	s1, _ := m.Snapshot(1, 1)
	s2, _ := m.Snapshot(1, 2)
	if s2.Root != s1.Root {
		t.Fatalf("aborted snapshot root %v != predecessor %v", s2.Root, s1.Root)
	}
}

// The batched path must surface per-request errors through the regular
// AssignTicket/Complete API too.
func TestBatchedPathSurfacesErrors(t *testing.T) {
	m := newTestManager(t, BatchConfig{MaxBatch: 8, MaxDelay: time.Millisecond})
	if _, err := m.AssignTicket(42, ext(0, 100)); !errors.Is(err, ErrUnknownBlob) {
		t.Fatalf("AssignTicket unknown blob: %v", err)
	}
	if err := m.Complete(1, 9, segtree.NodeKey{}); err == nil {
		t.Fatal("Complete of unassigned version succeeded")
	}
	if err := m.Abort(1, 9); err == nil {
		t.Fatal("Abort of unassigned version succeeded")
	}
	tk, err := m.AssignTicket(1, ext(0, 100))
	if err != nil {
		t.Fatalf("AssignTicket: %v", err)
	}
	if err := m.Abort(1, tk.Version); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if err := m.WaitPublished(1, tk.Version); err != nil {
		t.Fatalf("WaitPublished after abort: %v", err)
	}
}

// A group leader must not linger past MaxDelay when the group does not
// fill: a lone batched request must still complete promptly.
func TestBatchedLoneRequestCompletes(t *testing.T) {
	m := newTestManager(t, BatchConfig{MaxBatch: 64, MaxDelay: 5 * time.Millisecond})
	start := time.Now()
	tk, err := m.AssignTicket(1, ext(0, 100))
	if err != nil {
		t.Fatalf("AssignTicket: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone batched request took %v", elapsed)
	}
	if err := m.Complete(1, tk.Version, segtree.NodeKey{}); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if err := m.WaitPublished(1, tk.Version); err != nil {
		t.Fatalf("WaitPublished: %v", err)
	}
}

// One metered control round trip per group: with batching the manager's
// op count must drop roughly by the batch size.
func TestBatchingAmortizesMeterOps(t *testing.T) {
	run := func(cfg BatchConfig) int64 {
		m := New(iosim.CostModel{})
		m.SetBatching(cfg)
		if err := m.CreateBlob(1, segtree.Geometry{Capacity: 1 << 20, Page: 1 << 12}); err != nil {
			t.Fatalf("CreateBlob: %v", err)
		}
		m.Meter().Reset()
		const writers = 64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tk, err := m.AssignTicket(1, ext(int64(w)*10, 10))
				if err != nil {
					t.Errorf("AssignTicket: %v", err)
					return
				}
				if err := m.Complete(1, tk.Version, segtree.NodeKey{}); err != nil {
					t.Errorf("Complete: %v", err)
				}
			}(w)
		}
		wg.Wait()
		return m.Meter().Stats().Ops
	}
	unbatched := run(BatchConfig{})
	batched := run(BatchConfig{MaxBatch: 64, MaxDelay: 2 * time.Millisecond})
	if unbatched != 128 {
		t.Fatalf("unbatched ops = %d, want 128 (one per assign + one per complete)", unbatched)
	}
	if batched >= unbatched {
		t.Fatalf("batched ops = %d, not amortized below unbatched %d", batched, unbatched)
	}
}

// TestCombinerSplitsALongQueue: requests that queued behind a leader
// busy applying its own group are drained in groups of at most
// MaxBatch, in arrival order, and every one is answered.
func TestCombinerSplitsALongQueue(t *testing.T) {
	const maxBatch, queued = 4, 10
	m := newTestManager(t, BatchConfig{MaxBatch: maxBatch})
	vs := make([]uint64, 1+queued)
	for i := range vs {
		tk, err := m.AssignTicket(1, ext(0, 64))
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = tk.Version
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var groups [][]uint64 // the versions of each group, written under the manager lock
	m.SetCrashpoint(func(group []PublishRequest, applied int) bool {
		if applied > 0 {
			return false
		}
		if len(groups) == 0 {
			close(entered)
			<-release // the leader's own group holds the queue back
		}
		g := make([]uint64, len(group))
		for i, r := range group {
			g[i] = r.Version
		}
		groups = append(groups, g)
		return false
	})
	complete := func(v uint64) <-chan error {
		done := make(chan error, 1)
		go func() { done <- m.Complete(1, v, segtree.NodeKey{Version: v, Size: 1 << 20}) }()
		return done
	}
	results := []<-chan error{complete(vs[0])}
	<-entered
	for i, v := range vs[1:] {
		results = append(results, complete(v))
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			m.commits.mu.Lock()
			n := len(m.commits.queue)
			m.commits.mu.Unlock()
			if n == i+1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d requests queued, want %d", n, i+1)
			}
		}
	}
	close(release)
	for i, done := range results {
		if err := <-done; err != nil {
			t.Fatalf("complete of v%d: %v", vs[i], err)
		}
	}
	want := [][]uint64{vs[:1]}
	for rest := vs[1:]; len(rest) > 0; rest = rest[min(maxBatch, len(rest)):] {
		want = append(want, rest[:min(maxBatch, len(rest))])
	}
	if !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups %v, want %v", groups, want)
	}
	if info, err := m.LatestPublished(1); err != nil || info.Version != vs[len(vs)-1] {
		t.Fatalf("latest published %+v, %v; want v%d", info, err, vs[len(vs)-1])
	}
}
