package provider

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/iosim"
)

func TestAllocateRoundRobin(t *testing.T) {
	m := NewManager()
	for i := 0; i < 3; i++ {
		m.Register(New(ID(i), chunk.NewMemStore(nil)))
	}
	var seq []ID
	for i := 0; i < 6; i++ {
		ps, err := m.AllocateN(1)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, ps[0].ID())
	}
	want := []ID{0, 1, 2, 0, 1, 2}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("allocation order %v, want %v", seq, want)
		}
	}
}

func TestAllocateEmpty(t *testing.T) {
	m := NewManager()
	if _, err := m.AllocateN(1); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("err = %v, want ErrNoProviders", err)
	}
	if _, err := m.AllocateN(3); !errors.Is(err, ErrNoProviders) {
		t.Fatalf("AllocateN err = %v", err)
	}
}

func TestAllocateSkipsDownProviders(t *testing.T) {
	m, _ := testPool(3, 0, false)
	if err := m.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 2 || m.Count() != 3 {
		t.Fatalf("Live = %d, Count = %d", m.Live(), m.Count())
	}
	for i := 0; i < 12; i++ {
		ps, err := m.AllocateN(1)
		if err != nil {
			t.Fatal(err)
		}
		if ps[0].ID() == 1 {
			t.Fatal("allocated to a down provider")
		}
	}
	if err := m.SetDown(1, false); err != nil {
		t.Fatal(err)
	}
	if m.Live() != 3 {
		t.Fatalf("Live after revival = %d", m.Live())
	}
	if err := m.SetDown(99, true); err == nil {
		t.Fatal("SetDown of unknown provider must fail")
	}
}

// Property: AllocateN always returns n distinct providers, never a
// down one — the invariant that makes replicas of one chunk survive a
// single machine loss.
func TestPropAllocateNDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		pool := 1 + rng.Intn(8)
		m, _ := testPool(pool, 0, false)
		down := map[ID]bool{}
		for id := 0; id < pool; id++ {
			if rng.Intn(3) == 0 {
				down[ID(id)] = true
				if err := m.SetDown(ID(id), true); err != nil {
					t.Fatal(err)
				}
			}
		}
		live := pool - len(down)
		if live == 0 {
			continue
		}
		n := 1 + rng.Intn(live)
		ps, err := m.AllocateN(n)
		if err != nil {
			t.Fatalf("trial %d: AllocateN(%d) with %d live: %v", trial, n, live, err)
		}
		seen := map[ID]bool{}
		for _, p := range ps {
			if seen[p.ID()] {
				t.Fatalf("trial %d: duplicate replica target %d in %d picks", trial, p.ID(), n)
			}
			if down[p.ID()] {
				t.Fatalf("trial %d: down provider %d allocated", trial, p.ID())
			}
			seen[p.ID()] = true
		}
	}
}

// Property: consecutive AllocateN calls stay round-robin balanced —
// per-provider allocation counts never drift apart by more than one.
func TestPropAllocateNBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		pool := 2 + rng.Intn(7)
		m, _ := testPool(pool, 0, false)
		r := 1 + rng.Intn(pool)
		calls := 20 + rng.Intn(100)
		for i := 0; i < calls; i++ {
			if _, err := m.AllocateN(r); err != nil {
				t.Fatal(err)
			}
		}
		lo, hi := int64(1<<62), int64(0)
		for _, p := range m.Providers() {
			c := p.Allocated()
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi-lo > 1 {
			t.Fatalf("trial %d: pool=%d R=%d calls=%d imbalance %d..%d", trial, pool, r, calls, lo, hi)
		}
	}
}

// AllocateN must fail with the typed error when the replication degree
// exceeds the live provider count.
func TestAllocateNInsufficientProviders(t *testing.T) {
	m, _ := testPool(4, 0, false)
	if err := m.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := m.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	_, err := m.AllocateN(3)
	if !errors.Is(err, ErrInsufficientProviders) {
		t.Fatalf("err = %v, want ErrInsufficientProviders", err)
	}
	var typed *InsufficientProvidersError
	if !errors.As(err, &typed) {
		t.Fatalf("err %v is not *InsufficientProvidersError", err)
	}
	if typed.Want != 3 || typed.Live != 2 {
		t.Fatalf("typed error = %+v, want Want=3 Live=2", typed)
	}
	// Enough live providers again: succeeds.
	if err := m.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateN(3); err != nil {
		t.Fatalf("AllocateN after revival: %v", err)
	}
}

func TestConcurrentAllocationBalance(t *testing.T) {
	const providers = 8
	const rounds = 100
	m, _ := testPool(providers, 0, false)
	var wg sync.WaitGroup
	for g := 0; g < providers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := m.AllocateN(1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Round-robin under concurrency must stay perfectly balanced.
	for _, p := range m.Providers() {
		if p.Allocated() != rounds {
			t.Fatalf("provider %d Allocated = %d, want %d", p.ID(), p.Allocated(), rounds)
		}
	}
}

func TestRouterPutGet(t *testing.T) {
	m, _ := testPool(3, 0, false)
	r := NewRouter(m)
	key := chunk.Key{Blob: 1, Version: 5, Index: 0}
	ids, err := r.Put(key, []byte("routed data"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("unreplicated Put stored %d copies", len(ids))
	}
	gotIDs, ok := r.Locate(key)
	if !ok || len(gotIDs) != 1 || gotIDs[0] != ids[0] {
		t.Fatalf("Locate = %v,%v want %v", gotIDs, ok, ids)
	}
	data, err := r.Get(key, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "data" {
		t.Fatalf("Get = %q", data)
	}
}

func TestRouterGetUnknown(t *testing.T) {
	r := NewRouter(NewManager())
	if _, err := r.Get(chunk.Key{Blob: 1}, 0, 1); !errors.Is(err, chunk.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRouterDistributesChunks(t *testing.T) {
	m, _ := testPool(4, 0, false)
	r := NewRouter(m)
	// Keys put out of (blob, version, index) order.
	keyOf := func(i int) chunk.Key {
		return chunk.Key{Blob: uint64(2 - i%2), Version: uint64(3 - i%3), Index: uint32(16 - i)}
	}
	for i := 0; i < 16; i++ {
		if _, err := r.Put(keyOf(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range m.Providers() {
		if got := p.Store().Count(); got != 4 {
			t.Fatalf("provider %d holds %d chunks, want 4", p.ID(), got)
		}
	}
	// The placement map lists them by blob, version and index.
	keys := r.Keys()
	if len(keys) != 16 || !slices.IsSortedFunc(keys, func(a, b chunk.Key) int {
		return cmp.Or(cmp.Compare(a.Blob, b.Blob), cmp.Compare(a.Version, b.Version), cmp.Compare(a.Index, b.Index))
	}) {
		t.Fatalf("Keys() = %v, want the 16 keys sorted", keys)
	}
	// Every chunk must still be readable through the router.
	for i := 0; i < 16; i++ {
		got, err := r.Get(keyOf(i), 0, 1)
		if err != nil || got[0] != byte(i) {
			t.Fatalf("chunk %d: %v %v", i, got, err)
		}
	}
}

func TestRouterReplicatedPut(t *testing.T) {
	m, _ := testPool(4, 0, false)
	r := NewRouter(m)
	r.SetReplicas(3)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("replicated"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("stored %d copies, want 3", len(ids))
	}
	seen := map[ID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("replica set %v has duplicates", ids)
		}
		seen[id] = true
		p := m.byID(id)
		if p == nil {
			t.Fatalf("unknown provider %d in replica set", id)
		}
		if _, err := p.Store().Get(key, 0, 10); err != nil {
			t.Fatalf("replica on provider %d unreadable: %v", id, err)
		}
	}
}

func TestRouterFailoverRead(t *testing.T) {
	m, _ := testPool(3, 0, false)
	r := NewRouter(m)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("survives"))
	if err != nil {
		t.Fatal(err)
	}
	// Kill one replica holder: reads must fail over to the survivor —
	// every time, regardless of read-rotation state.
	if err := m.SetDown(ids[0], true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		data, err := r.Get(key, 0, 8)
		if err != nil || string(data) != "survives" {
			t.Fatalf("degraded Get = %q, %v", data, err)
		}
	}
	// The deprecated GetFrom reads the same way and returns no fresh
	// set.
	data, fresh, err := r.GetFrom(ids, key, 0, 8)
	if err != nil || string(data) != "survives" {
		t.Fatalf("degraded GetFrom = %q, %v", data, err)
	}
	if fresh != nil {
		t.Fatalf("GetFrom returned fresh set %v", fresh)
	}
	// Kill the second replica too: the read must now fail.
	if err := m.SetDown(ids[1], true); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(key, 0, 8); !errors.Is(err, ErrProviderDown) {
		t.Fatalf("Get with all replicas down = %v, want ErrProviderDown", err)
	}
}

func TestRouterGetFromStaleHint(t *testing.T) {
	// A set naming only unknown providers changes nothing: GetFrom
	// reads the router's placement map, as every read does.
	m, _ := testPool(3, 0, false)
	r := NewRouter(m)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	if _, err := r.Put(key, []byte("real")); err != nil {
		t.Fatal(err)
	}
	data, fresh, err := r.GetFrom([]ID{77, 78}, key, 0, 4)
	if err != nil || string(data) != "real" || fresh != nil {
		t.Fatalf("GetFrom = %q, %v, fresh %v", data, err, fresh)
	}
}

func TestRouterWriteQuorum(t *testing.T) {
	newRouter := func(replicas, quorum int) (*Router, []*chunk.FaultStore) {
		m := NewManager()
		var faults []*chunk.FaultStore
		for i := 0; i < 3; i++ {
			f := chunk.NewFaultStore(chunk.NewMemStore(nil))
			faults = append(faults, f)
			m.Register(New(ID(i), f))
		}
		r := NewRouter(m)
		r.SetReplicas(replicas)
		r.SetWriteQuorum(quorum)
		return r, faults
	}

	// Default quorum R-1: one failed copy still commits.
	r, faults := newRouter(3, 0)
	if got := r.WriteQuorum(); got != 2 {
		t.Fatalf("default quorum for R=3 is %d, want 2", got)
	}
	faults[1].SetDown(true)
	ids, err := r.Put(chunk.Key{Blob: 1}, []byte("x"))
	if err != nil {
		t.Fatalf("Put with one dead store: %v", err)
	}
	if len(ids) != 2 {
		t.Fatalf("recorded %d replicas, want the 2 that landed", len(ids))
	}

	// Quorum R: any failed copy fails the write.
	r, faults = newRouter(3, 3)
	faults[2].SetDown(true)
	if _, err := r.Put(chunk.Key{Blob: 2}, []byte("x")); !errors.Is(err, chunk.ErrDown) {
		t.Fatalf("strict-quorum Put = %v, want ErrDown", err)
	}

	// Two dead stores beat the default quorum: write fails.
	r, faults = newRouter(3, 0)
	faults[0].SetDown(true)
	faults[1].SetDown(true)
	if _, err := r.Put(chunk.Key{Blob: 3}, []byte("x")); err == nil {
		t.Fatal("Put below quorum must fail")
	}
}

func TestRouterRepair(t *testing.T) {
	m, _ := testPool(4, 0, false)
	r := NewRouter(m)
	r.SetReplicas(2)
	const chunks = 12
	payload := func(i int) []byte { return []byte(fmt.Sprintf("chunk-%02d", i)) }
	for i := 0; i < chunks; i++ {
		if _, err := r.Put(chunk.Key{Blob: 1, Index: uint32(i)}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetDown(2, true); err != nil {
		t.Fatal(err)
	}
	st := r.Repair()
	if st.Scanned != chunks {
		t.Fatalf("scanned %d, want %d", st.Scanned, chunks)
	}
	if st.Degraded == 0 || st.Repaired != st.Degraded || st.Lost != 0 || st.Failed != 0 {
		t.Fatalf("repair stats %+v", st)
	}
	// Every chunk is back at full degree on live distinct providers.
	for i := 0; i < chunks; i++ {
		key := chunk.Key{Blob: 1, Index: uint32(i)}
		ids, ok := r.Locate(key)
		if !ok || len(ids) != 2 {
			t.Fatalf("chunk %d replica set %v after repair", i, ids)
		}
		if ids[0] == ids[1] {
			t.Fatalf("chunk %d repaired onto duplicate provider %v", i, ids)
		}
		for _, id := range ids {
			if id == 2 {
				t.Fatalf("chunk %d still placed on dead provider", i)
			}
		}
		got, err := r.Get(key, 0, int64(len(payload(i))))
		if err != nil || string(got) != string(payload(i)) {
			t.Fatalf("chunk %d after repair: %q, %v", i, got, err)
		}
	}
	// A second pass finds nothing to do.
	st = r.Repair()
	if st.Degraded != 0 || st.Copied != 0 {
		t.Fatalf("second repair pass not idempotent: %+v", st)
	}
}

func TestRouterRepairLost(t *testing.T) {
	// R=1 with the single holder dead: the chunk is lost, counted, and
	// repair does not invent data.
	m, _ := testPool(2, 0, false)
	r := NewRouter(m)
	key := chunk.Key{Blob: 1}
	ids, err := r.Put(key, []byte("only copy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDown(ids[0], true); err != nil {
		t.Fatal(err)
	}
	st := r.Repair()
	if st.Lost != 1 || st.Repaired != 0 {
		t.Fatalf("repair stats %+v, want 1 lost", st)
	}
}

// TestNewURLPoolInDomains: the one pool constructor builds n
// providers racked into contiguous domains, hands out a fault handle
// per provider when asked (reusing a fault+ URL's own wrapper), and
// refuses a store it cannot open.
func TestNewURLPoolInDomains(t *testing.T) {
	m, faults := testPool(4, 2, false)
	if m.Count() != 4 || faults != nil {
		t.Fatalf("pool of %d providers with %d fault handles, want 4 and none", m.Count(), len(faults))
	}
	for i, p := range m.Providers() {
		if want := DomainLabel(i, 4, 2); p.Domain() != want {
			t.Fatalf("provider %d in domain %q, want %q", i, p.Domain(), want)
		}
	}
	for _, url := range []string{"mem://", "fault+mem://"} {
		m, faults, err := NewURLPoolInDomains(url, 3, 0, iosim.CostModel{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(faults) != 3 {
			t.Fatalf("%s: %d fault handles, want 3", url, len(faults))
		}
		faults[1].SetDown(true)
		if _, err := m.Providers()[1].Store().Len(chunk.Key{Blob: 1}); !errors.Is(err, chunk.ErrDown) {
			t.Fatalf("%s: a downed fault handle's store answered %v, want ErrDown", url, err)
		}
	}
	if _, _, err := NewURLPoolInDomains("bogus://", 2, 0, iosim.CostModel{}, false); err == nil {
		t.Fatal("an unknown store scheme opened")
	}
}

// testPool builds n unmetered in-memory providers in the given number
// of failure domains, each store wrapped in a chunk.FaultStore when
// faulty.
func testPool(n, domains int, faulty bool) (*Manager, []*chunk.FaultStore) {
	m, faults, err := NewURLPoolInDomains("mem://", n, domains, iosim.CostModel{}, faulty)
	if err != nil {
		panic(err) // a mem:// store always opens
	}
	return m, faults
}

// TestRouterReadRepairSignals: a degraded read (failover needed) and a
// quorum-committed short write must both report the exact chunk to the
// degraded handler — the feed of the read-repair queue.
func TestRouterReadRepairSignals(t *testing.T) {
	m, faults := testPool(3, 0, true)
	r := NewRouter(m)
	r.SetReplicas(2)
	var mu sync.Mutex
	var degraded []chunk.Key
	r.SetDegradedHandler(func(key chunk.Key) {
		mu.Lock()
		degraded = append(degraded, key)
		mu.Unlock()
	})

	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("heal me"))
	if err != nil || len(ids) != 2 {
		t.Fatalf("Put = %v, %v", ids, err)
	}
	mu.Lock()
	if len(degraded) != 0 {
		t.Fatalf("healthy Put reported degraded chunks: %v", degraded)
	}
	mu.Unlock()

	// Kill one holder's STORE (no flags): reads must fail over and
	// report the chunk, every time.
	faults[ids[0]].SetDown(true)
	for i := 0; i < 4; i++ {
		if _, err := r.Get(key, 0, 7); err != nil {
			t.Fatalf("degraded Get: %v", err)
		}
	}
	mu.Lock()
	n := len(degraded)
	mu.Unlock()
	if n == 0 {
		t.Fatal("degraded reads never reported the chunk for read-repair")
	}

	// A write whose quorum commits short of R also self-reports.
	mu.Lock()
	degraded = degraded[:0]
	mu.Unlock()
	key2 := chunk.Key{Blob: 1, Version: 2, Index: 0}
	for i := 0; i < 3; i++ { // round-robin: some allocation hits the dead store
		key2.Index = uint32(i)
		if _, err := r.Put(key2, []byte("short")); err != nil {
			t.Fatalf("Put with one dead store: %v", err)
		}
	}
	mu.Lock()
	n = len(degraded)
	mu.Unlock()
	if n == 0 {
		t.Fatal("under-replicated Put never reported itself")
	}
}

// TestVerifyReplicasProbesStores: VerifyReplicas must catch a replica
// whose provider is flag-live but store-dead — the detection gap
// between a machine dying and the monitor noticing.
func TestVerifyReplicasProbesStores(t *testing.T) {
	m, faults := testPool(3, 0, true)
	r := NewRouter(m)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	if live, want, misplaced := r.VerifyReplicas(key); misplaced || live != 2 || want != 2 {
		t.Fatalf("healthy VerifyReplicas = %d/%d/%v", live, want, misplaced)
	}
	faults[ids[1]].SetDown(true)
	if live, _, _ := r.VerifyReplicas(key); live != 1 {
		t.Fatalf("VerifyReplicas after store kill = %d live, want 1", live)
	}
	// The flags still believe the replica is fine: only the probe saw it.
	if r.byID(ids[1]).Down() {
		t.Fatal("a store kill flipped the provider's down flag")
	}
	if n := r.UnderReplicated(); n != 1 {
		t.Fatalf("UnderReplicated = %d, want 1", n)
	}
}

// TestRepairChunk: single-chunk repair restores degree, moves
// placement off the dead store, and reports healthy/lost outcomes.
func TestRepairChunk(t *testing.T) {
	m, faults := testPool(4, 0, true)
	r := NewRouter(m)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 9, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("fix me"))
	if err != nil {
		t.Fatal(err)
	}
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("healthy RepairChunk = %v/%d/%v", outcome, copied, err)
	}
	faults[ids[0]].SetDown(true)
	outcome, copied, err := r.RepairChunk(key)
	if outcome != RepairRepaired || copied != 1 || err != nil {
		t.Fatalf("RepairChunk = %v/%d/%v, want repaired/1/nil", outcome, copied, err)
	}
	now, _ := r.Locate(key)
	for _, id := range now {
		if id == ids[0] {
			t.Fatalf("placement %v still references the dead store %d", now, ids[0])
		}
	}
	if data, err := r.Get(key, 0, 6); err != nil || string(data) != "fix me" {
		t.Fatalf("post-repair Get = %q, %v", data, err)
	}
	// Lose every copy: the outcome must be Lost, not a silent success.
	for _, fs := range faults {
		fs.SetDown(true)
	}
	if outcome, _, err := r.RepairChunk(key); outcome != RepairLost || err == nil {
		t.Fatalf("all-dead RepairChunk = %v/%v, want lost/error", outcome, err)
	}
	if outcome, _, err := r.RepairChunk(chunk.Key{Blob: 404}); outcome != RepairHealthy || err != nil {
		t.Fatalf("unknown-key RepairChunk = %v/%v", outcome, err)
	}
}

// TestGetFromRefreshesPartiallyStaleHint: after repair moved one copy
// off a dead provider, every read returns the writer's bytes from the
// repaired set — handed the write-time set [dead, live] or not — and
// none of them skips the dead provider or reports the chunk degraded.
func TestGetFromRefreshesPartiallyStaleHint(t *testing.T) {
	m, _ := testPool(4, 0, false)
	r := NewRouter(m)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("refresh"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDown(ids[0], true); err != nil {
		t.Fatal(err)
	}
	if st := r.Repair(); st.Repaired != 1 {
		t.Fatalf("repair: %+v", st)
	}
	var notes atomic.Int64
	r.SetDegradedHandler(func(chunk.Key) { notes.Add(1) })
	for i := 0; i < 4; i++ { // rotation: each copy is tried first
		data, f, err := r.GetFrom(ids, key, 0, 7)
		if err != nil || string(data) != "refresh" || f != nil {
			t.Fatalf("GetFrom = %q, %v, fresh %v", data, err, f)
		}
		if data, err := r.Get(key, 0, 7); err != nil || string(data) != "refresh" {
			t.Fatalf("Get = %q, %v", data, err)
		}
	}
	if n := notes.Load(); n != 0 {
		t.Fatalf("reads of the repaired chunk reported it degraded %d times", n)
	}
}

// TestStaleHintDoesNotSpamRepairQueue: reads handed the write-time set,
// which names a long-dead provider, must NOT enqueue the chunk once
// repair brought it back to full degree — healthy chunks would crowd
// real work out of the bounded queue. They read the repaired set, which
// skips nothing.
func TestStaleHintDoesNotSpamRepairQueue(t *testing.T) {
	m, _ := testPool(4, 0, false)
	r := NewRouter(m)
	r.SetReplicas(2)
	var mu sync.Mutex
	enqueued := 0
	r.SetDegradedHandler(func(chunk.Key) { mu.Lock(); enqueued++; mu.Unlock() })
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("quiet"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDown(ids[0], true); err != nil {
		t.Fatal(err)
	}
	if st := r.Repair(); st.Repaired != 1 {
		t.Fatalf("repair: %+v", st)
	}
	mu.Lock()
	enqueued = 0 // the degraded window before repair may legitimately enqueue
	mu.Unlock()
	for i := 0; i < 8; i++ {
		if _, _, err := r.GetFrom(ids, key, 0, 5); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if enqueued != 0 {
		t.Fatalf("stale-hint reads of a fully replicated chunk enqueued %d repairs", enqueued)
	}
}

// TestRepairCatchesStoreDeadReplica: a full Repair() pass must heal a
// replica whose provider is flag-live but store-dead — manual repair
// cannot depend on the failure detector having tripped first.
func TestRepairCatchesStoreDeadReplica(t *testing.T) {
	m, faults := testPool(4, 0, true)
	r := NewRouter(m)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("flag-live"))
	if err != nil {
		t.Fatal(err)
	}
	faults[ids[0]].SetDown(true) // store dies; flags say nothing
	st := r.Repair()
	if st.Degraded != 1 || st.Repaired != 1 || st.Lost != 0 {
		t.Fatalf("flag-blind repair pass: %+v", st)
	}
	if live, _, _ := r.VerifyReplicas(key); live != 2 {
		t.Fatalf("chunk still at %d verified copies after repair", live)
	}
}

// TestHealthAdminOverrideNotRevived: if an operator downs a provider
// WHILE the monitor also has it down, probation probes must not revive
// it — the operator's decision wins until the operator reverses it.
func TestHealthAdminOverrideNotRevived(t *testing.T) {
	cfg := HealthConfig{Threshold: 1, Probation: time.Second, ProbeSuccesses: 1}
	rig := newHealthRig(t, 1, cfg)
	rig.probeOK[0] = true // store would answer probes
	rig.h.ReportFailure(0)
	if rig.h.State(0) != Down {
		t.Fatal("monitor did not mark down")
	}
	// Operator drains the machine deliberately (epoch moves).
	if err := rig.m.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rig.advance(time.Minute)
		rig.h.Tick()
	}
	if !rig.m.Providers()[0].Down() {
		t.Fatal("probation probes revived an operator-downed provider")
	}
	// And the reverse: operator revives while the monitor holds it
	// down — the monitor cedes instead of fighting the flag.
	rig2 := newHealthRig(t, 1, cfg)
	rig2.probeOK[0] = true
	rig2.h.ReportFailure(0)
	if err := rig2.m.SetDown(0, false); err != nil {
		t.Fatal(err)
	}
	rig2.advance(time.Minute)
	rig2.h.Tick()
	if rig2.m.Providers()[0].Down() {
		t.Fatal("monitor re-downed an operator-revived provider")
	}
	if st := rig2.h.State(0); st != Live {
		t.Fatalf("monitor state after ceding = %s, want live", st)
	}
}
