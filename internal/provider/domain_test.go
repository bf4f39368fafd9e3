package provider

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
)

// domainPool builds an unmetered manager with the given domain labels,
// one provider per label entry.
func domainPool(labels ...string) *Manager {
	m := NewManager()
	for i, d := range labels {
		m.Register(NewInDomain(ID(i), chunk.NewMemStore(nil), d))
	}
	return m
}

// domainRouter builds a fault-injectable replicated router over n
// providers split into the given number of contiguous domains.
func domainRouter(t *testing.T, n, domains, replicas int) (*Router, []*chunk.FaultStore) {
	t.Helper()
	mgr, faults := testPool(n, domains, true)
	r := NewRouter(mgr)
	r.SetReplicas(replicas)
	return r, faults
}

// Property: the domain-spread invariant of AllocateN, over random
// provider/domain/R combinations with random down flags. When at least
// n domains have a live provider, the n replicas land in n DISTINCT
// domains; when the pool was configured with fewer than n domains,
// allocation is best-effort — per-call domain counts balanced within
// one wherever a domain still had spare live providers; and when the
// pool promises n domains but fewer are live, the typed
// insufficient-domains error comes back — never a silent co-location.
func TestPropAllocateNDomainSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		pool := 2 + rng.Intn(10)
		confDomains := 1 + rng.Intn(pool)
		labels := make([]string, pool)
		for i := range labels {
			labels[i] = fmt.Sprintf("d%d", rng.Intn(confDomains))
		}
		m := domainPool(labels...)
		configured := m.configuredDomains()

		down := map[ID]bool{}
		for id := 0; id < pool; id++ {
			if rng.Intn(4) == 0 {
				down[ID(id)] = true
				if err := m.SetDown(ID(id), true); err != nil {
					t.Fatal(err)
				}
			}
		}
		liveByDom := map[string]int{}
		live := 0
		for i, d := range labels {
			if !down[ID(i)] {
				liveByDom[d]++
				live++
			}
		}
		if live == 0 {
			continue
		}
		n := 1 + rng.Intn(live)

		for call := 0; call < 3; call++ {
			ps, err := m.AllocateN(n)
			if err != nil {
				if configured >= n && len(liveByDom) < n {
					if !errors.Is(err, ErrInsufficientDomains) {
						t.Fatalf("trial %d: err = %v, want ErrInsufficientDomains", trial, err)
					}
					var typed *InsufficientDomainsError
					if !errors.As(err, &typed) || typed.Want != n || typed.Live != len(liveByDom) {
						t.Fatalf("trial %d: typed error %+v does not describe the shortage (want %d, live %d)",
							trial, typed, n, len(liveByDom))
					}
					break // every call fails the same way
				}
				t.Fatalf("trial %d: AllocateN(%d) over %d domains (%d live): %v",
					trial, n, configured, len(liveByDom), err)
			}
			if configured >= n && len(liveByDom) < n {
				t.Fatalf("trial %d: silent spread violation: %d live domains < %d wanted, but no error", trial, len(liveByDom), n)
			}
			perDom := map[string]int{}
			for _, p := range ps {
				if down[p.ID()] {
					t.Fatalf("trial %d: down provider %d allocated", trial, p.ID())
				}
				perDom[p.Domain()]++
			}
			if len(liveByDom) >= n {
				// Strict: one replica per domain, no exceptions.
				for d, c := range perDom {
					if c > 1 {
						t.Fatalf("trial %d: %d replicas co-located in domain %s with %d live domains >= n=%d",
							trial, c, d, len(liveByDom), n)
					}
				}
			} else {
				// Best-effort: a domain may exceed another by more than
				// one only when the lighter domain had no spare live
				// provider to take the difference.
				for d1, c1 := range perDom {
					for d2, c2 := range liveByDom {
						used := perDom[d2]
						if c1 > used+1 && used < c2 {
							t.Fatalf("trial %d: domain %s got %d while domain %s sits at %d with %d live providers",
								trial, d1, c1, d2, used, c2)
						}
					}
				}
			}
		}
	}
}

// The typed insufficient-domains error: a pool configured with enough
// domains refuses to co-locate when a domain outage leaves too few
// live, and recovers as soon as the domain returns.
func TestAllocateNInsufficientDomains(t *testing.T) {
	m := domainPool("a", "a", "b", "b", "c", "c")
	if _, err := m.AllocateN(3); err != nil {
		t.Fatalf("healthy 3-domain allocation: %v", err)
	}
	// Domain c goes down entirely: 2 live domains < 3 wanted.
	for _, id := range []ID{4, 5} {
		if err := m.SetDown(id, true); err != nil {
			t.Fatal(err)
		}
	}
	_, err := m.AllocateN(3)
	if !errors.Is(err, ErrInsufficientDomains) {
		t.Fatalf("err = %v, want ErrInsufficientDomains", err)
	}
	// Providers are checked first: a provider shortage reports as such
	// even when domains are short too.
	for _, id := range []ID{1, 2, 3} {
		if err := m.SetDown(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AllocateN(3); !errors.Is(err, ErrInsufficientProviders) {
		t.Fatalf("err = %v, want ErrInsufficientProviders", err)
	}
	// Domain c revives: strict spread is satisfiable again.
	for _, id := range []ID{1, 2, 3, 4, 5} {
		if err := m.SetDown(id, false); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := m.AllocateN(3)
	if err != nil {
		t.Fatal(err)
	}
	doms := map[string]bool{}
	for _, p := range ps {
		doms[p.Domain()] = true
	}
	if len(doms) != 3 {
		t.Fatalf("replicas span %d domains, want 3", len(doms))
	}
}

// A pool configured with fewer domains than R spreads best-effort —
// never the typed error, per-call counts balanced within one — so flat
// and small-domain legacy deployments keep writing.
func TestAllocateNBestEffortBelowDomainCount(t *testing.T) {
	m := domainPool("a", "a", "b", "b")
	for call := 0; call < 8; call++ {
		ps, err := m.AllocateN(3) // 2 domains < R=3: best-effort
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		perDom := map[string]int{}
		for _, p := range ps {
			perDom[p.Domain()]++
		}
		if perDom["a"]+perDom["b"] != 3 || perDom["a"] < 1 || perDom["b"] < 1 {
			t.Fatalf("call %d: per-domain counts %v not balanced within one", call, perDom)
		}
	}
}

// A PARTIALLY tagged pool (topology in transition: some providers
// still in the "" default domain) stays FLAT: no typed error, no
// spread audit, no funneling of a copy of every chunk onto the tagged
// minority. Domain semantics activate only once every provider is
// tagged.
func TestAllocateNPartialTagStaysFlat(t *testing.T) {
	m := domainPool("", "", "", "zoneX")
	zoneX := int64(0)
	for call := 0; call < 8; call++ {
		ps, err := m.AllocateN(2)
		if err != nil {
			t.Fatalf("call %d: partial tagging must stay flat: %v", call, err)
		}
		if len(ps) != 2 || ps[0].ID() == ps[1].ID() {
			t.Fatalf("call %d: bad set %v", call, ps)
		}
		for _, p := range ps {
			if p.Domain() == "zoneX" {
				zoneX++
			}
		}
	}
	// Flat round-robin gives the tagged provider its fair 1/4 share of
	// 16 picks, not a copy of every chunk (the funneling hazard).
	if zoneX > 5 {
		t.Fatalf("tagged minority received %d of 16 picks — partial tagging funneled data onto it", zoneX)
	}
	// No typed error either, even with the tagged provider down.
	if err := m.SetDown(3, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateN(2); err != nil {
		t.Fatalf("partial tagging with tagged provider down: %v", err)
	}
	// And the audit is inert during the transition.
	r := NewRouter(m)
	r.SetReplicas(2)
	if n := r.liveDomainCount(); n != 1 {
		t.Fatalf("live domain count = %d on a partially tagged pool, want 1 (flat)", n)
	}
}

// Cross-call balance on a domain pool: per-provider allocation counts
// stay close (within-domain least-loaded pick + rotating domain ring).
func TestAllocateNDomainBalance(t *testing.T) {
	m := domainPool("a", "a", "b", "b", "c", "c")
	for i := 0; i < 60; i++ {
		if _, err := m.AllocateN(3); err != nil {
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
		t.Fatalf("per-provider imbalance %d..%d after 60 calls", lo, hi)
	}
}

// Regression: RepairChunk restores the domain SPREAD after a loss, not
// just the replica count — the re-replicated copy lands outside the
// surviving replica's domain even when the dead provider's own domain
// still has a live machine.
func TestRepairRestoresDomainSpread(t *testing.T) {
	// 6 providers, 3 domains of 2 (zone0={0,1}, zone1={2,3}, zone2={4,5}).
	r, _ := domainRouter(t, 6, 3, 2)
	key := chunk.Key{Blob: 1, Version: 1}
	ids, err := r.Put(key, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if d0, d1 := r.DomainOf(ids[0]), r.DomainOf(ids[1]); d0 == d1 {
		t.Fatalf("fresh write co-located in %s", d0)
	}
	// The whole domain of replica 0 dies (flags down, the correlated
	// loss); its partner machine in that domain is gone too, so repair
	// must pick a third domain — never the survivor's.
	lostDom := r.DomainOf(ids[0])
	for _, p := range r.Providers() {
		if p.Domain() == lostDom {
			if err := r.SetDown(p.ID(), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	outcome, copied, err := r.RepairChunk(key)
	if err != nil || outcome != RepairRepaired || copied != 1 {
		t.Fatalf("repair = %v, %d, %v", outcome, copied, err)
	}
	now, _ := r.Locate(key)
	doms := map[string]bool{}
	for _, id := range now {
		if d := r.DomainOf(id); doms[d] {
			t.Fatalf("repair co-located replicas %v in domain %s", now, d)
		} else {
			doms[d] = true
		}
		if r.DomainOf(id) == lostDom {
			t.Fatalf("repair placed a copy back into the lost domain %s", lostDom)
		}
	}
	if audit := r.SpreadAudit(); len(audit) != 0 {
		t.Fatalf("spread still violated after repair: %v (audit %v)", now, audit)
	}
}

// repairModes are the two placements the repair tests run under, each
// tolerating one lost position: R=2 replication and rs-2+1 coding.
var repairModes = []struct {
	name string
	set  func(*Router) error
}{
	{"R=2", func(r *Router) error { r.SetReplicas(2); return nil }},
	{"rs-2+1", func(r *Router) error { return r.SetCoding(2, 1) }},
}

// modeRouter builds a fault-injectable router over n providers split
// into the given number of contiguous domains (0: flat) in one of the
// repairModes.
func modeRouter(t *testing.T, n, domains int, set func(*Router) error) (*Router, []*chunk.FaultStore) {
	t.Helper()
	mgr, faults := testPool(n, domains, true)
	r := NewRouter(mgr)
	if err := set(r); err != nil {
		t.Fatal(err)
	}
	return r, faults
}

// coLocate retags a flat pool so providers a and b share one domain
// and the rest of the pool forms two more.
func coLocate(t *testing.T, r *Router, a, b ID) {
	t.Helper()
	var others []ID
	for _, p := range r.Providers() {
		tagged := "zoneA"
		if p.ID() != a && p.ID() != b {
			others = append(others, p.ID())
			tagged = fmt.Sprintf("zone%d", len(others)%2)
		}
		if err := r.SetDomain(p.ID(), tagged); err != nil {
			t.Fatal(err)
		}
	}
}

// holders lists the providers whose stores hold key.
func holders(r *Router, key chunk.Key) []ID {
	var out []ID
	for _, p := range r.Providers() {
		if _, err := p.Store().Len(key); err == nil {
			out = append(out, p.ID())
		}
	}
	return out
}

// Regression: a chunk at FULL count whose replicas or fragments
// co-locate (the topology changed under it — retagged domains) is
// re-spread by RepairChunk: one position moves to an uncovered domain,
// its old holder's copy is deleted, and the data stays readable.
func TestRepairRespreadsCoLocatedChunk(t *testing.T) {
	for _, mode := range repairModes {
		t.Run(mode.name, func(t *testing.T) {
			// Flat pool: placement ignores domains entirely.
			r, _ := modeRouter(t, 6, 0, mode.set)
			key := chunk.Key{Blob: 2, Version: 1}
			data := []byte("spread me")
			ids, err := r.Put(key, data)
			if err != nil {
				t.Fatal(err)
			}
			// Retag so two holders share one domain; the rest of the
			// pool forms two more domains.
			coLocate(t, r, ids[0], ids[1])
			if live, want, misplaced := r.VerifyReplicas(key); live != want || !misplaced {
				t.Fatalf("co-located chunk verified %d/%d, misplaced %v; want full and misplaced", live, want, misplaced)
			}
			if audit := r.SpreadAudit(); len(audit) != 1 || audit[0] != key {
				t.Fatalf("SpreadAudit = %v, want [%s]", audit, key)
			}
			outcome, copied, err := r.RepairChunk(key)
			if err != nil || outcome != RepairRepaired || copied != 1 {
				t.Fatalf("re-spread = %v, %d, %v", outcome, copied, err)
			}
			if audit := r.SpreadAudit(); len(audit) != 0 {
				t.Fatalf("still violated after re-spread: %v", audit)
			}
			now, _ := r.Locate(key)
			if len(now) != len(ids) {
				t.Fatalf("placement width drifted to %d, want %d", len(now), len(ids))
			}
			// The evicted copy is gone from its store; the survivors serve.
			if h := holders(r, key); len(h) != len(ids) {
				t.Fatalf("stores %v hold a copy, want exactly %d", h, len(ids))
			}
			got, err := r.Get(key, 0, int64(len(data)))
			if err != nil || string(got) != string(data) {
				t.Fatalf("read after re-spread = %q, %v", got, err)
			}
			// Converged: another repair is a no-op.
			if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
				t.Fatalf("second repair = %v, %d, %v", outcome, copied, err)
			}
		})
	}
}

// refusingStore is a store whose Delete can be refused: a machine that
// still serves its chunks but cannot free them.
type refusingStore struct {
	chunk.Store
	refuse atomic.Bool
}

func (s *refusingStore) Delete(key chunk.Key) error {
	if s.refuse.Load() {
		return errors.New("delete refused")
	}
	return s.Store.Delete(key)
}

// refusingRouter builds a flat router over n refusingStores.
func refusingRouter(n int) (*Router, []*refusingStore) {
	m := NewManager()
	stores := make([]*refusingStore, n)
	for i := range stores {
		stores[i] = &refusingStore{Store: chunk.NewMemStore(nil)}
		m.Register(New(ID(i), stores[i]))
	}
	return NewRouter(m), stores
}

// Regression: a coded spread move whose eviction fails must not leave
// a fragment behind on a store placement does not name — DeleteReplicas
// only reaches what placement names, so such a fragment would never be
// reclaimed. The move is undone and the error returned; once deletes
// work again the next repair makes the move.
func TestCodedRespreadFailedEvictionLeavesNoOrphan(t *testing.T) {
	r, stores := refusingRouter(6)
	if err := r.SetCoding(2, 1); err != nil {
		t.Fatal(err)
	}
	key := chunk.Key{Blob: 8, Version: 1}
	data := []byte("every fragment in placement")
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	coLocate(t, r, ids[0], ids[1])
	// The fragment holders refuse to delete; a move's target does not.
	for _, id := range ids {
		stores[id].refuse.Store(true)
	}
	if outcome, _, err := r.RepairChunk(key); outcome != RepairPartial || err == nil {
		t.Fatalf("re-spread with the eviction refused = %v, %v; want partial and an error", outcome, err)
	}
	now, _ := r.Locate(key)
	for _, id := range holders(r, key) {
		if !slices.Contains(now, id) {
			t.Fatalf("provider %d holds a fragment of %s that placement %v does not name", id, key, now)
		}
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
		t.Fatalf("read after the refused move = %q, %v", got, err)
	}

	for _, id := range ids {
		stores[id].refuse.Store(false)
	}
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairRepaired || copied != 1 || err != nil {
		t.Fatalf("re-spread with deletes working = %v, %d, %v; want repaired, 1, nil", outcome, copied, err)
	}
	if audit := r.SpreadAudit(); len(audit) != 0 {
		t.Fatalf("SpreadAudit after the move = %v", audit)
	}
	if _, _, err := r.DeleteReplicas(key); err != nil {
		t.Fatal(err)
	}
	if h := holders(r, key); len(h) != 0 {
		t.Fatalf("providers %v still hold %s after DeleteReplicas", h, key)
	}
}

// Regression: a replica set above the degree that still violates the
// spread is re-spread, then trimmed, without the move overrunning the
// set. Two ways to reach it at R=3 with all three replicas in one of
// three domains: a move whose eviction was refused recorded a fourth
// copy (the set then covers two domains, still short of three), or
// the degree was lowered under the co-located set.
func TestRespreadAboveDegreeConverges(t *testing.T) {
	for _, tc := range []struct {
		name          string
		refuseFirst   bool
		lowerReplicas int
	}{
		{name: "eviction refused once", refuseFirst: true},
		{name: "degree lowered", lowerReplicas: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, stores := refusingRouter(9)
			r.SetReplicas(3)
			key := chunk.Key{Blob: 9, Version: 1}
			data := []byte("three in one domain")
			ids, err := r.Put(key, data)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range r.Providers() {
				d := fmt.Sprintf("z%d", 1+int(p.ID())%2)
				if slices.Contains(ids, p.ID()) {
					d = "z0"
				}
				if err := r.SetDomain(p.ID(), d); err != nil {
					t.Fatal(err)
				}
			}
			want := 3
			if tc.refuseFirst {
				for _, id := range ids {
					stores[id].refuse.Store(true)
				}
				if outcome, copied, err := r.RepairChunk(key); outcome != RepairRepaired || copied != 1 || err != nil {
					t.Fatalf("move with the eviction refused = %v, %d, %v", outcome, copied, err)
				}
				if now, _ := r.Locate(key); len(now) != 4 {
					t.Fatalf("placement after the refused eviction = %v, want both copies recorded", now)
				}
				for _, id := range ids {
					stores[id].refuse.Store(false)
				}
			}
			if tc.lowerReplicas > 0 {
				want = tc.lowerReplicas
				r.SetReplicas(want)
			}
			for pass := 0; ; pass++ {
				outcome, _, err := r.RepairChunk(key)
				if err != nil {
					t.Fatalf("pass %d: %v", pass, err)
				}
				if outcome == RepairHealthy {
					break
				}
				if pass == 5 {
					t.Fatalf("no convergence after %d passes", pass)
				}
			}
			now, _ := r.Locate(key)
			if len(now) != want {
				t.Fatalf("placement %v, want %d replicas", now, want)
			}
			if h := holders(r, key); !slices.Equal(h, slices.Sorted(slices.Values(now))) {
				t.Fatalf("stores %v hold a copy, placement names %v", h, now)
			}
			if audit := r.SpreadAudit(); len(audit) != 0 {
				t.Fatalf("SpreadAudit after convergence = %v", audit)
			}
			if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
				t.Fatalf("read after convergence = %q, %v", got, err)
			}
		})
	}
}

// A coded record whose width differs from the current mode's (written
// under another mode, which is unsupported) is refused, not repaired:
// repair deletes nothing and names the mismatch.
func TestCodedRepairRefusesOtherWidth(t *testing.T) {
	r, _ := refusingRouter(8)
	if err := r.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	key := chunk.Key{Blob: 10, Version: 1}
	ids, err := r.Put(key, []byte("six fragments"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetCoding(2, 1); err != nil {
		t.Fatal(err)
	}
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairPartial || copied != 0 || err == nil {
		t.Fatalf("repair of a 6-wide record under rs-2+1 = %v, %d, %v; want partial, 0, an error", outcome, copied, err)
	}
	if now, _ := r.Locate(key); !slices.Equal(now, ids) {
		t.Fatalf("placement changed to %v, was %v", now, ids)
	}
	if h := holders(r, key); len(h) != len(ids) {
		t.Fatalf("stores %v hold a fragment, want all %d", h, len(ids))
	}
}

// Regression: a replica set ABOVE the replication degree (what a
// spread move leaves when its eviction fails) is trimmed back to R by
// the next RepairChunk — the extra copy's storage is reclaimed, not
// leaked until version GC.
func TestRepairTrimsExcessCopies(t *testing.T) {
	r, _ := domainRouter(t, 6, 3, 2)
	key := chunk.Key{Blob: 5, Version: 1}
	data := []byte("one too many")
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	// Manufacture the failed-eviction aftermath: a third copy exists
	// and placement records it.
	var extra *Provider
	covered := map[string]bool{}
	for _, id := range ids {
		covered[r.DomainOf(id)] = true
	}
	for _, p := range r.Providers() {
		if !covered[p.Domain()] {
			extra = p
			break
		}
	}
	if err := extra.Store().Put(key, data); err != nil {
		t.Fatal(err)
	}
	r.place.mu.Lock()
	r.place.m[key] = append(append([]ID(nil), ids...), extra.ID())
	r.place.mu.Unlock()

	if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("repair over-degree = %v, %d, %v", outcome, copied, err)
	}
	now, _ := r.Locate(key)
	if len(now) != 2 {
		t.Fatalf("placement still holds %d replicas, want 2", len(now))
	}
	holders := 0
	for _, p := range r.Providers() {
		if _, err := p.Store().Len(key); err == nil {
			holders++
		}
	}
	if holders != 2 {
		t.Fatalf("%d stores hold a copy after trim, want 2", holders)
	}
	if audit := r.SpreadAudit(); len(audit) != 0 {
		t.Fatalf("trim broke the spread: %v (audit %v)", now, audit)
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
		t.Fatalf("read after trim = %q, %v", got, err)
	}
}

// Regression: a stale placement entry naming a dead provider next to
// a full live set (what a spread move leaves when its eviction races a
// store death) is invisible to the probe-based live count — the
// scrubber's verification calls it misplaced and RepairChunk prunes it.
func TestRepairPrunesStaleDeadEntry(t *testing.T) {
	r, faults := domainRouter(t, 6, 3, 2)
	key := chunk.Key{Blob: 6, Version: 1}
	ids, err := r.Put(key, make([]byte, 24))
	if err != nil {
		t.Fatal(err)
	}
	// A third recorded replica whose store is dead: live count stays 2.
	var extra ID = -1
	used := map[ID]bool{ids[0]: true, ids[1]: true}
	for _, p := range r.Providers() {
		if !used[p.ID()] {
			extra = p.ID()
			break
		}
	}
	faults[extra].SetDown(true)
	r.place.mu.Lock()
	r.place.m[key] = append(append([]ID(nil), ids...), extra)
	r.place.mu.Unlock()

	if live, want, misplaced := r.VerifyReplicas(key); live != 2 || want != 2 || !misplaced {
		t.Fatalf("stale dead entry verified %d/%d, misplaced %v; want 2/2, misplaced", live, want, misplaced)
	}
	if outcome, _, err := r.RepairChunk(key); outcome != RepairRepaired || err != nil {
		t.Fatalf("repair of stale placement = %v, %v", outcome, err)
	}
	now, _ := r.Locate(key)
	if len(now) != 2 {
		t.Fatalf("placement still holds %d entries, want 2", len(now))
	}
	for _, id := range now {
		if id == extra {
			t.Fatalf("stale dead entry %d survived repair: %v", extra, now)
		}
	}
	if _, _, misplaced := r.VerifyReplicas(key); misplaced {
		t.Fatalf("placement still misplaced after prune: %v", now)
	}
}

// Repair/delete mutual exclusion (PR 4) holds under domain-constrained
// allocation: a claimed chunk refuses deletion with ErrChunkBusy, a
// repair under a delete claim backs off healthy, and a completed
// delete is never resurrected by a domain-spread repair.
func TestDomainRepairDeleteMutualExclusion(t *testing.T) {
	r, _ := domainRouter(t, 6, 3, 2)
	key := chunk.Key{Blob: 3, Version: 1}
	if _, err := r.Put(key, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if !r.claimKey(key) {
		t.Fatal("claim failed")
	}
	if _, _, err := r.DeleteReplicas(key); !errors.Is(err, ErrChunkBusy) {
		t.Fatalf("delete under repair = %v, want ErrChunkBusy", err)
	}
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("repair under delete = %v, %d, %v", outcome, copied, err)
	}
	r.releaseKey(key)
	if _, _, err := r.DeleteReplicas(key); err != nil {
		t.Fatalf("delete after release: %v", err)
	}
	if outcome, _, _ := r.RepairChunk(key); outcome != RepairHealthy {
		t.Fatalf("repair resurrected a deleted chunk: %v", outcome)
	}
	if _, ok := r.Locate(key); ok {
		t.Fatal("placement entry resurrected")
	}
}

// Domain-kill at the store level (flags still live): RepairChunk's
// probes catch the dead copies and fragments and re-spread into
// surviving domains.
func TestRepairDomainKillStoreLevel(t *testing.T) {
	for _, mode := range repairModes {
		t.Run(mode.name, func(t *testing.T) {
			r, faults := modeRouter(t, 8, 4, mode.set)
			var keys []chunk.Key
			for i := 0; i < 16; i++ {
				key := chunk.Key{Blob: 4, Version: uint64(i + 1)}
				if _, err := r.Put(key, make([]byte, 32)); err != nil {
					t.Fatal(err)
				}
				keys = append(keys, key)
			}
			// Kill every store in zone1 ({2,3}); nobody flips a flag.
			for _, p := range r.Providers() {
				if p.Domain() == "zone1" {
					faults[p.ID()].SetDown(true)
				}
			}
			for _, key := range keys {
				if outcome, _, err := r.RepairChunk(key); outcome == RepairLost || outcome == RepairPartial {
					t.Fatalf("chunk %s: %v, %v — a domain kill under one-loss spread must never lose data", key, outcome, err)
				}
			}
			for _, key := range keys {
				ids, _ := r.Locate(key)
				for _, id := range ids {
					if r.DomainOf(id) == "zone1" {
						t.Fatalf("chunk %s still placed in the dead domain: %v", key, ids)
					}
				}
			}
			if n := r.UnderReplicated(); n != 0 {
				t.Fatalf("UnderReplicated after repair = %d", n)
			}
		})
	}
}

// BenchmarkVerifyReplicas is one scrub pass over 2000 well-spread
// chunks at R=3 on 64 providers in 8 domains: the healer's per-chunk
// router cost.
func BenchmarkVerifyReplicas(b *testing.B) {
	mgr, _ := testPool(64, 8, true)
	r := NewRouter(mgr)
	r.SetReplicas(3)
	keys := make([]chunk.Key, 2000)
	for i := range keys {
		keys[i] = chunk.Key{Blob: 1, Version: uint64(i + 1)}
		if _, err := r.Put(keys[i], []byte("x")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range keys {
			r.VerifyReplicas(k)
		}
	}
}
