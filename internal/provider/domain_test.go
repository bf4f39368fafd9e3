package provider

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
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
	mgr, faults := NewFaultPoolInDomains(n, domains, iosim.CostModel{})
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
	if r.LiveDomains() != 1 {
		t.Fatalf("LiveDomains = %d on a partially tagged pool, want 1 (flat)", r.LiveDomains())
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
	if r.SpreadViolated(key) {
		t.Fatalf("spread still violated after repair: %v", now)
	}
}

// Regression: a chunk at FULL count whose replicas co-locate (the
// topology changed under it — retagged domains) is re-spread by
// RepairChunk: one copy moves to an uncovered domain, the co-located
// extra is deleted, and the data stays readable.
func TestRepairRespreadsCoLocatedChunk(t *testing.T) {
	// Flat pool: placement ignores domains entirely.
	r, _ := replicatedRouter(t, 6, 2)
	key := chunk.Key{Blob: 2, Version: 1}
	data := []byte("spread me")
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	// Retag so both existing replicas share one domain; the rest of
	// the pool forms two more domains.
	var others []ID
	for _, p := range r.Providers() {
		tagged := "zoneA"
		if p.ID() != ids[0] && p.ID() != ids[1] {
			others = append(others, p.ID())
			tagged = fmt.Sprintf("zone%d", len(others)%2)
		}
		if err := r.SetDomain(p.ID(), tagged); err != nil {
			t.Fatal(err)
		}
	}
	if !r.SpreadViolated(key) {
		t.Fatal("co-located chunk not flagged by the audit")
	}
	if audit := r.SpreadAudit(); len(audit) != 1 || audit[0] != key {
		t.Fatalf("SpreadAudit = %v, want [%s]", audit, key)
	}
	outcome, copied, err := r.RepairChunk(key)
	if err != nil || outcome != RepairRepaired || copied != 1 {
		t.Fatalf("re-spread = %v, %d, %v", outcome, copied, err)
	}
	if r.SpreadViolated(key) {
		t.Fatal("still violated after re-spread")
	}
	now, _ := r.Locate(key)
	if len(now) != 2 {
		t.Fatalf("replica count drifted to %d", len(now))
	}
	// The evicted copy is gone from its store; the survivors serve.
	total := 0
	for _, p := range r.Providers() {
		if _, err := p.Store().Len(key); err == nil {
			total++
		}
	}
	if total != 2 {
		t.Fatalf("%d stores hold a copy, want exactly 2", total)
	}
	got, err := r.Get(key, 0, int64(len(data)))
	if err != nil || string(got) != string(data) {
		t.Fatalf("read after re-spread = %q, %v", got, err)
	}
	// Converged: another repair is a no-op.
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("second repair = %v, %d, %v", outcome, copied, err)
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
	if r.SpreadViolated(key) {
		t.Fatalf("trim broke the spread: %v", now)
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || string(got) != string(data) {
		t.Fatalf("read after trim = %q, %v", got, err)
	}
}

// Regression: a stale placement entry naming a dead provider next to
// a full live set (what a spread move leaves when its eviction races a
// store death) is invisible to the probe-based live count — the
// PlacementSuspect audit flags it and RepairChunk prunes it.
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

	if !r.PlacementSuspect(key, r.LiveDomains()) {
		t.Fatal("stale dead entry not flagged by PlacementSuspect")
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
	if r.PlacementSuspect(key, r.LiveDomains()) {
		t.Fatalf("placement still suspect after prune: %v", now)
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
// probes catch the dead copies and re-spread into surviving domains.
func TestRepairDomainKillStoreLevel(t *testing.T) {
	r, faults := domainRouter(t, 8, 4, 2)
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
			t.Fatalf("chunk %s: %v, %v — a domain kill at R=2 spread must never lose data", key, outcome, err)
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
}
