// Package provider implements the data-provider layer: a set of chunk
// stores (one per storage machine) and the provider manager that
// allocates chunks to providers. The manager implements the paper's
// load-balancing striping strategy: writes are directed to providers in
// round-robin order so the I/O workload distributes itself across the
// aggregate bandwidth of all machines.
//
// On top of placement the layer implements chunk replication: the
// Router stores every chunk on R distinct providers (Router.SetReplicas)
// in parallel, commits a write once a configurable write quorum of
// copies landed (Router.SetWriteQuorum), fails reads over to surviving
// replicas when a provider is down (Manager.SetDown), and restores the
// replication degree after a provider loss with a re-replication pass
// (Router.Repair). Replication is the durability primitive that lets a
// deployment lose a storage machine without losing any published
// snapshot.
//
// # One data path
//
// Chunk bytes move through the Router one way in each direction,
// whatever the entry point and whatever the placement:
//
//   - Router.put is the one put core: read a fan-out's bytes into a
//     buffer of its own, allocate targets, store on each (putOne), apply
//     the write quorum, record placement, note a chunk born degraded.
//     Put and PutStream are its entry points and hand it the same thing,
//     a reader — Put's over the caller's bytes, which the caller keeps —
//     so a store is only ever handed a buffer the router owns.
//   - Router.read is the one read core: the set placement names,
//     read-repair, the ReadCache rule. Get and Open are its entry
//     points and differ only in how the bytes leave a store
//     (chunkRead): into a slice or as a stream.
//   - Router.repair (repair.go) is the one repair core, behind
//     RepairChunk: probe every position, restore the missing ones onto
//     fresh providers in uncovered domains, re-spread a co-located chunk,
//     trim copies above degree.
//   - placementMode (placement.go) is the seam the three cores are
//     written against, and the only code that knows whether chunks are
//     replicated (placement.go) or erasure coded (coded.go): width and
//     quorum floor, what each target stores and what is recorded, the
//     read algorithm, and for
//     repair how a missing position's bytes are decoded, how a repaired
//     placement is recorded, and whether positions are interchangeable
//     copies.
//
// # Contracts
//
// These contracts introduced by the replication, self-healing,
// failure-domain and read-tier work are load-bearing for every caller:
//
//   - Manager.AllocateN(n) returns n DISTINCT live providers — on a
//     flat (single-domain) pool a consecutive window of the live ring,
//     so successive calls stay round-robin balanced within one — or
//     fails with a typed *InsufficientProvidersError
//     (errors.Is-matchable against ErrInsufficientProviders) when
//     fewer than n providers are live. It never silently repeats a
//     provider: replica sets are always distinct machines.
//   - Domain spread: every provider carries a failure-domain label
//     (rack, zone; NewInDomain/SetDomain). When the pool is FULLY
//     tagged (no provider left in the "" default domain) with at least
//     n distinct domains, AllocateN(n) returns providers in n DISTINCT
//     domains — correlated loss of one whole domain can never take out
//     every replica of a chunk — or fails with a typed
//     *InsufficientDomainsError (errors.Is-matchable against
//     ErrInsufficientDomains) when fewer than n domains currently have
//     a live provider. It never silently co-locates. When the fully
//     tagged pool has FEWER than n domains, allocation is documented
//     best-effort instead: replicas round-robin across the live
//     domains, per-call domain counts balanced within one wherever
//     capacity allows. A partially tagged pool (topology in
//     transition) stays FLAT — placement, audit and spread repair all
//     ignore domains until the last provider is tagged, so one retag
//     cannot funnel data onto the tagged minority. Repair restores
//     this spread, not just the replica count, with one core for both
//     placements: missing copies or fragments land in domains the
//     survivors do not cover, and a chunk at full degree whose
//     positions co-locate while a spare live domain exists is
//     re-spread by moving one position — copy it into an uncovered
//     domain, then evict the old holder (RepairChunk). When the
//     eviction fails a replica set records both copies, for the next
//     pass to trim; a coded position holds one provider, so the copy is
//     deleted again and the error returned — no fragment is left
//     outside placement without an error naming it.
//   - One placement truth: the placement map (Locate) is the only
//     answer to where a chunk lives. Metadata refs name no providers,
//     and every read — Get, Open, and over the framed plane every get —
//     reads the set placement names at that moment, so a repair that
//     moved copies is followed by the next read, and a copy a read
//     skips or fails on is one placement names: the chunk is below
//     degree and goes to read-repair. GetFrom (every blob.DataService
//     implementation) is deprecated: it ignores its replica set and
//     returns fresh == nil.
//   - Read tier: with a local domain set (SetLocalDomain) reads try
//     same-domain replicas first, then rotate the rest — never
//     narrowing the failover set, only reordering it. With a ReadCache
//     wired (SetReadCache) BYTE reads are served read-through: chunk
//     data is cached on success, and because chunks are immutable the
//     ONLY invalidation signal is a placement change — every post-Put
//     placement mutation (RepairChunk's restore, re-spread and trim;
//     DeleteReplicas) drops the chunk's cache entry. STREAM reads
//     (Open) bypass the cache in both placement modes — and every
//     network client reads by stream (the framed plane), so a cache
//     holds chunk data for in-process readers only.
//
// # Space reclamation
//
// The Router is also the deletion point of the version-lifecycle
// garbage collector: DeleteReplicas removes a chunk no retained
// snapshot references from every reachable replica and retires its
// placement entry. Deletion and repair coordinate through a per-chunk
// in-flight claim, so a chunk being re-replicated is never deleted out
// from under the repair (and vice versa: a repair never resurrects a
// chunk the collector is deleting).
package provider

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metrics"
)

// ID identifies one data provider.
type ID int

// Provider couples a chunk store with identity and accounting. The
// meter, when present, lives inside the store (see chunk.NewMemStore),
// so Provider itself only tracks allocation counts. downEpoch counts
// SetDown transitions so the health monitor can tell whether an
// administrator touched the flag since the monitor last did. domain is
// the failure-domain label (rack, zone) allocation spreads replicas
// across; the empty label is the single default domain of a flat pool.
type Provider struct {
	id        ID
	store     chunk.Store
	allocated atomic.Int64
	down      atomic.Bool
	downEpoch atomic.Int64

	domainMu sync.RWMutex
	domain   string
}

// New builds a provider around the given store, in the default (flat)
// failure domain.
func New(id ID, store chunk.Store) *Provider {
	return &Provider{id: id, store: store}
}

// NewInDomain builds a provider tagged with a failure-domain label.
func NewInDomain(id ID, store chunk.Store, domain string) *Provider {
	p := New(id, store)
	p.domain = domain
	return p
}

// ID returns the provider's identity.
func (p *Provider) ID() ID { return p.id }

// Domain returns the provider's failure-domain label ("" = the default
// domain of a flat pool).
func (p *Provider) Domain() string {
	p.domainMu.RLock()
	defer p.domainMu.RUnlock()
	return p.domain
}

// setDomain retags the provider (Manager.SetDomain).
func (p *Provider) setDomain(domain string) {
	p.domainMu.Lock()
	p.domain = domain
	p.domainMu.Unlock()
}

// Store exposes the underlying chunk store.
func (p *Provider) Store() chunk.Store { return p.store }

// Allocated returns how many chunks the manager has routed here.
func (p *Provider) Allocated() int64 { return p.allocated.Load() }

// Down reports whether the provider is marked dead (machine loss).
func (p *Provider) Down() bool { return p.down.Load() }

// ErrNoProviders is returned when the manager has no registered
// providers.
var ErrNoProviders = errors.New("provider: no providers registered")

// ErrProviderDown is returned when an operation targets a provider that
// has been marked down via Manager.SetDown.
var ErrProviderDown = errors.New("provider: provider down")

// ErrInsufficientProviders is the sentinel matched (via errors.Is) by
// InsufficientProvidersError.
var ErrInsufficientProviders = errors.New("provider: not enough live providers")

// InsufficientProvidersError is returned by AllocateN when the
// requested replication degree exceeds the number of live providers.
type InsufficientProvidersError struct {
	Want int // distinct providers requested
	Live int // live providers available
}

// Error implements error.
func (e *InsufficientProvidersError) Error() string {
	return fmt.Sprintf("provider: need %d distinct live providers, only %d live", e.Want, e.Live)
}

// Is matches the ErrInsufficientProviders sentinel.
func (e *InsufficientProvidersError) Is(target error) bool {
	return target == ErrInsufficientProviders
}

// ErrInsufficientDomains is the sentinel matched (via errors.Is) by
// InsufficientDomainsError.
var ErrInsufficientDomains = errors.New("provider: not enough live failure domains")

// InsufficientDomainsError is returned by AllocateN when the pool is
// configured with at least Want distinct failure domains — so n-way
// domain spread is this deployment's durability promise — but fewer
// than Want domains currently have a live provider. Allocation fails
// typed rather than silently co-locating replicas in a shared domain.
type InsufficientDomainsError struct {
	Want       int // distinct domains the replica set must span
	Live       int // domains with at least one live provider
	Configured int // distinct domains among all registered providers
}

// Error implements error.
func (e *InsufficientDomainsError) Error() string {
	return fmt.Sprintf("provider: need %d distinct live failure domains, only %d of %d configured domains live",
		e.Want, e.Live, e.Configured)
}

// Is matches the ErrInsufficientDomains sentinel.
func (e *InsufficientDomainsError) Is(target error) bool {
	return target == ErrInsufficientDomains
}

// Manager is the provider manager: it tracks live providers and hands
// out allocation targets for new chunks. Providers marked down via
// SetDown are excluded from every allocation decision.
type Manager struct {
	mu        sync.RWMutex
	providers []*Provider
	next      atomic.Uint64

	// domMu guards the cached domainPromise result, recomputed only
	// when Register/SetDomain change the topology — AllocateN sits on
	// the per-chunk write hot path and must not rescan the pool.
	domMu     sync.Mutex
	domCached bool
	domCount  int
	domFull   bool
}

// NewManager builds an empty round-robin manager.
func NewManager() *Manager { return &Manager{} }

// DomainLabel names the failure domain of provider i in a pool of n
// providers split into the given number of equal contiguous blocks
// ("zone0", "zone1", ...). Fewer than two domains yields the flat
// default domain "".
func DomainLabel(i, n, domains int) string {
	if domains < 2 || n < 1 {
		return ""
	}
	if domains > n {
		domains = n
	}
	return fmt.Sprintf("zone%d", i*domains/n)
}

// NewURLPoolInDomains builds a pool of n providers whose stores come
// from the chunk backend factory, each with an exclusive meter charging
// model: the pool-level URL is specialized per provider (disk schemes
// get a /pN subdirectory), so mem://, disk:// and null:// swap the
// medium without touching placement. The providers are split into the
// given number of failure domains — contiguous blocks labeled per
// DomainLabel, modeling machines racked together; domains <= 1 builds
// the flat single-domain pool. With faulty set, every store is
// additionally wrapped in a chunk.FaultStore (reusing the wrapper when
// the URL already carries the fault+ prefix), so callers can kill a
// machine at the store level, and the handles are returned by provider
// index.
func NewURLPoolInDomains(rawURL string, n, domains int, model iosim.CostModel, faulty bool) (*Manager, []*chunk.FaultStore, error) {
	m := NewManager()
	var faults []*chunk.FaultStore
	for i := 0; i < n; i++ {
		s, err := chunk.OpenStore(chunk.ForProvider(rawURL, uint32(i)), iosim.NewMeter(model, true))
		if err != nil {
			return nil, nil, fmt.Errorf("provider %d: %w", i, err)
		}
		if faulty {
			fs, ok := s.(*chunk.FaultStore)
			if !ok {
				fs = chunk.NewFaultStore(s)
			}
			faults = append(faults, fs)
			s = fs
		}
		m.Register(NewInDomain(ID(i), s, DomainLabel(i, n, domains)))
	}
	return m, faults, nil
}

// Register adds a provider to the pool.
func (m *Manager) Register(p *Provider) {
	m.mu.Lock()
	m.providers = append(m.providers, p)
	m.mu.Unlock()
	m.invalidateDomains()
}

// invalidateDomains drops the cached domainPromise result after a
// topology change.
func (m *Manager) invalidateDomains() {
	m.domMu.Lock()
	m.domCached = false
	m.domMu.Unlock()
}

// Count returns the number of registered providers.
func (m *Manager) Count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.providers)
}

// Live returns the number of providers not marked down.
func (m *Manager) Live() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, p := range m.providers {
		if !p.Down() {
			n++
		}
	}
	return n
}

// SetDown marks a provider dead (down=true) or revived (down=false).
// A down provider receives no new allocations, is skipped by read
// failover, and counts as lost for Repair.
func (m *Manager) SetDown(id ID, down bool) error {
	_, err := m.setDown(id, down)
	return err
}

// setDown flips the down flag and returns the new transition epoch —
// the token the health monitor uses to detect administrative
// intervention between its own transitions.
func (m *Manager) setDown(id ID, down bool) (int64, error) {
	p := m.byID(id)
	if p == nil {
		return 0, fmt.Errorf("provider: unknown provider %d", id)
	}
	p.down.Store(down)
	return p.downEpoch.Add(1), nil
}

// claimDown atomically flips a currently-live provider down and
// returns the new epoch. ok is false when the provider was already
// down — someone else (an administrator, or an earlier transition)
// owns the flag and the caller must not claim it.
func (m *Manager) claimDown(id ID) (epoch int64, ok bool, err error) {
	p := m.byID(id)
	if p == nil {
		return 0, false, fmt.Errorf("provider: unknown provider %d", id)
	}
	if !p.down.CompareAndSwap(false, true) {
		return 0, false, nil
	}
	return p.downEpoch.Add(1), true, nil
}

// downEpochOf returns the current transition epoch of id's down flag
// (0 for unknown providers).
func (m *Manager) downEpochOf(id ID) int64 {
	if p := m.byID(id); p != nil {
		return p.downEpoch.Load()
	}
	return 0
}

// SetDomain retags a provider's failure domain — the administrative
// registration path (bsctl domain / the register-with-domain RPC).
// Already-placed chunks keep their placement; the scrubber's spread
// audit re-finds any replica set the new topology leaves co-located
// and repair re-spreads it. The empty label is refused: untagging a
// provider would silently demote the whole pool to flat placement
// (see domainPromise) while operators believe the spread guarantee
// still holds.
func (m *Manager) SetDomain(id ID, domain string) error {
	if domain == "" {
		return errors.New("provider: empty failure-domain label (untagging would silently disable domain spread)")
	}
	p := m.byID(id)
	if p == nil {
		return fmt.Errorf("provider: unknown provider %d", id)
	}
	p.setDomain(domain)
	m.invalidateDomains()
	return nil
}

// DomainOf returns the failure-domain label of id ("" for unknown
// providers and for members of a flat pool).
func (m *Manager) DomainOf(id ID) string {
	if p := m.byID(id); p != nil {
		return p.Domain()
	}
	return ""
}

// DomainMap groups registered provider IDs by failure-domain label, in
// registration order within each domain.
func (m *Manager) DomainMap() map[string][]ID {
	out := make(map[string][]ID)
	for _, p := range m.Providers() {
		d := p.Domain()
		out[d] = append(out[d], p.ID())
	}
	return out
}

// domainPromise reports the deployment's configured spread width: the
// distinct failure domains among ALL registered providers, and whether
// the pool is FULLY tagged (no provider left in the "" default
// domain). Domain semantics — the strict distinct-domain promise, the
// spread audit, spread-restoring repair — activate only on fully
// tagged pools: a partially retagged pool is a topology in transition,
// where treating the untagged majority as one domain would funnel a
// copy of every chunk onto the tagged minority (per-domain balance is
// capacity-blind) and fail all writes the moment it goes down, so the
// pool stays FLAT until the last provider is tagged. The result is
// cached; Register/SetDomain invalidate it.
func (m *Manager) domainPromise() (configured int, full bool) {
	m.domMu.Lock()
	defer m.domMu.Unlock()
	if !m.domCached {
		seen := make(map[string]bool)
		full := true
		for _, p := range m.Providers() {
			d := p.Domain()
			if d == "" {
				full = false
			}
			seen[d] = true
		}
		m.domCount, m.domFull, m.domCached = len(seen), full, true
	}
	return m.domCount, m.domFull
}

// configuredDomains counts the distinct failure domains among all
// registered providers.
func (m *Manager) configuredDomains() int {
	configured, _ := m.domainPromise()
	return configured
}

// byID returns the provider with the given ID, or nil.
func (m *Manager) byID(id ID) *Provider {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, p := range m.providers {
		if p.ID() == id {
			return p
		}
	}
	return nil
}

// Providers returns a snapshot of the registered providers.
func (m *Manager) Providers() []*Provider {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Provider, len(m.providers))
	copy(out, m.providers)
	return out
}

// live returns a snapshot of the providers not marked down, in
// registration order.
func (m *Manager) liveSnapshot() []*Provider {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Provider, 0, len(m.providers))
	for _, p := range m.providers {
		if !p.Down() {
			out = append(out, p)
		}
	}
	return out
}

// AllocateN returns n allocation targets for the n replicas of one
// chunk: always n distinct live providers. On a flat (single-domain)
// pool they are a consecutive window of the live ring so that
// successive calls stay round-robin balanced (every provider's share
// differs by at most one window). On a domain-tagged pool the targets
// additionally spread across failure domains: n DISTINCT domains when
// the pool is fully tagged with at least n of them — or a typed
// *InsufficientDomainsError when fewer than n domains currently have a
// live provider, never a silent co-location — and a best-effort
// round-robin spread (per-call domain counts balanced within one
// wherever capacity allows) when the fully tagged pool has fewer
// domains than n. A partially tagged pool allocates flat (see
// Manager.domainPromise for why a transition topology must not spread).
// When fewer than n providers are live it fails with a
// typed *InsufficientProvidersError.
func (m *Manager) AllocateN(n int) ([]*Provider, error) {
	return m.allocateSpread(n, nil, nil)
}

// allocateSpread is AllocateN with two extra constraints used by the
// re-replication path: exclude is the set of provider IDs that must
// not be chosen (the replicas a chunk already has), and have counts
// the failure domains those survivors occupy, so new copies fill the
// domains the chunk does NOT yet cover first. The strict
// distinct-domain promise applies only to fresh allocations (have ==
// nil): repair prefers restoring the replica count over failing on a
// domain shortage — a temporarily unachievable spread is recorded by
// the audit and re-spread once a domain returns.
func (m *Manager) allocateSpread(n int, exclude map[ID]bool, have map[string]int) ([]*Provider, error) {
	if n < 1 {
		return nil, fmt.Errorf("provider: AllocateN needs n >= 1, got %d", n)
	}
	m.mu.RLock()
	empty := len(m.providers) == 0
	m.mu.RUnlock()
	if empty {
		return nil, ErrNoProviders
	}
	live := m.liveSnapshot()
	if len(exclude) > 0 {
		filtered := live[:0:0]
		for _, p := range live {
			if !exclude[p.ID()] {
				filtered = append(filtered, p)
			}
		}
		live = filtered
	}
	if n > len(live) {
		return nil, &InsufficientProvidersError{Want: n, Live: len(live)}
	}
	configured, fullyTagged := m.domainPromise()
	if configured <= 1 || !fullyTagged {
		// Flat, or a topology in transition (see domainPromise): plain
		// window allocation until the tagging is complete.
		return m.allocateWindow(n, live), nil
	}

	// Group the candidates by domain, preserving first-seen order so
	// the ring rotation below is stable.
	var order []string
	byDom := make(map[string][]*Provider)
	for _, p := range live {
		d := p.Domain()
		if _, ok := byDom[d]; !ok {
			order = append(order, d)
		}
		byDom[d] = append(byDom[d], p)
	}
	if have == nil && configured >= n && len(byDom) < n {
		return nil, &InsufficientDomainsError{Want: n, Live: len(byDom), Configured: configured}
	}

	base := m.next.Add(uint64(n)) - uint64(n)
	// Rotate the domain ring so successive calls start their fill from
	// different domains (cross-call balance) — which this does only while
	// n is not a multiple of the live domain count: base advances by n a
	// call, so R=3 on 3 domains or a 6-wide stripe on 6 starts every fill
	// at the same domain. Harmless for a replica set, whose order means
	// nothing; coded placement, whose order is fragment position, rotates
	// the stripe it is handed by a hash of the key (coded.allocate).
	if r := int(base % uint64(len(order))); r > 0 {
		order = append(order[r:], order[:r]...)
	}

	// Water-fill: each pick goes to the domain with the fewest copies
	// so far (counting the survivors in have), taking the least-loaded
	// provider within it. With n <= live domains and no prior copies
	// every pick lands in a fresh domain — the distinct-domain
	// invariant; otherwise counts stay within one per domain wherever a
	// domain still has spare providers.
	counts := make(map[string]int, len(order))
	for d, c := range have {
		counts[d] = c
	}
	out := make([]*Provider, 0, n)
	for len(out) < n {
		dom := -1
		for i, d := range order {
			if len(byDom[d]) == 0 {
				continue
			}
			if dom < 0 || counts[d] < counts[order[dom]] {
				dom = i
			}
		}
		if dom < 0 {
			// Unreachable: n <= len(live) guarantees enough candidates.
			return nil, &InsufficientProvidersError{Want: n, Live: len(out)}
		}
		d := order[dom]
		pi := 0
		for j, p := range byDom[d] {
			if p.Allocated() < byDom[d][pi].Allocated() {
				pi = j
			}
		}
		p := byDom[d][pi]
		byDom[d] = append(byDom[d][:pi], byDom[d][pi+1:]...)
		counts[d]++
		p.allocated.Add(1)
		out = append(out, p)
	}
	return out, nil
}

// allocateWindow is the flat-pool allocation: a consecutive window of
// the live ring, round-robin balanced across calls.
func (m *Manager) allocateWindow(n int, live []*Provider) []*Provider {
	// Advance the cursor by n so consecutive calls tile the live ring:
	// every slot in [base, base+n) is used exactly once, which keeps
	// per-provider counts within one of each other.
	base := m.next.Add(uint64(n)) - uint64(n)
	out := make([]*Provider, 0, n)
	for i := 0; i < n; i++ {
		p := live[(base+uint64(i))%uint64(len(live))]
		p.allocated.Add(1)
		out = append(out, p)
	}
	return out
}

// placement records, for every stored chunk, the set of providers
// holding a copy.
type placement struct {
	mu sync.RWMutex
	m  map[chunk.Key][]ID
}

// Router pairs a Manager with a placement map so that readers can find
// the providers that hold any chunk. In the real BlobSeer placement is
// embedded in metadata; recording it here keeps metadata nodes compact
// while preserving the lookup path. The router is where replication
// lives: Put stores R copies on distinct providers and commits on a
// write quorum, Get fails over across surviving replicas, and Repair
// re-replicates chunks that lost copies to a dead provider.
type Router struct {
	*Manager
	place    placement
	cfg      sync.RWMutex // guards replicas/quorum/coding/health/onDegraded/locality/cache
	replicas int          // copies per chunk while replicating; >= 1
	quorum   int          // copies that must land for Put to succeed; 0 = replicas-1 (min 1)
	rdNext   atomic.Uint64

	// mode is the placement seam (placement.go): everything replicated
	// and erasure-coded placement differ in, chosen by SetReplicas and
	// SetCoding. maxChunk bounds declared streamed-put sizes (see
	// stream.go); 0 means the default.
	mode     placementMode
	maxChunk int64

	// localDomain is the failure domain this router's reads originate
	// from; preferLocal orders same-domain replicas first (see
	// SetReadLocality for the measure-only mode). The loc* atomics
	// count reads served locally vs remotely while a domain is set.
	localDomain                   string
	preferLocal                   bool
	locLocalReads, locRemoteReads atomic.Int64
	locLocalBytes, locRemoteBytes atomic.Int64

	// cache, when set, makes byte reads read-through: their data fills
	// it, placement changes invalidate it.
	cache *ReadCache

	// health, when set, receives the outcome of every replica store
	// attempt — the error stream failure detection is deduced from.
	health *HealthMonitor
	// onDegraded, when set, is told about chunks observed below the
	// replication degree (a read failed over, or a Put quorum-committed
	// short of R copies). The core Healer wires its repair queue here —
	// the read-repair path. Must be cheap and non-blocking.
	onDegraded func(chunk.Key)

	// busy tracks chunks with an in-flight repair or deletion, the
	// mutual exclusion that keeps GC and self-heal from racing on the
	// same chunk.
	busyMu sync.Mutex
	busy   map[chunk.Key]bool

	// met holds nil-tolerant metric handles, nil until SetMetrics.
	met struct {
		putTotal  *metrics.Counter
		putBytes  *metrics.Counter
		putSec    *metrics.Histogram
		getLocal  *metrics.Counter
		getRemote *metrics.Counter
		getFlat   *metrics.Counter
		getSec    *metrics.Histogram
		repairSec *metrics.Histogram
		repairOut [4]*metrics.Counter // indexed by RepairOutcome
	}
}

// SetMetrics wires the router's chunk put/get counters and latency
// histograms (gets split by locality: the reader's own domain, a remote
// domain, or "flat" when no reader domain is set) plus the per-repair
// outcome counters into reg. Call before serving traffic; a nil
// registry leaves metrics disabled.
func (r *Router) SetMetrics(reg *metrics.Registry) {
	r.met.putTotal = reg.Counter("bs_chunk_put_total")
	r.met.putBytes = reg.Counter("bs_chunk_put_bytes_total")
	r.met.putSec = reg.Histogram("bs_chunk_put_seconds", nil)
	r.met.getLocal = reg.Counter("bs_chunk_get_total", metrics.Label{Key: "locality", Value: "local"})
	r.met.getRemote = reg.Counter("bs_chunk_get_total", metrics.Label{Key: "locality", Value: "remote"})
	r.met.getFlat = reg.Counter("bs_chunk_get_total", metrics.Label{Key: "locality", Value: "flat"})
	r.met.getSec = reg.Histogram("bs_chunk_get_seconds", nil)
	r.met.repairSec = reg.Histogram("bs_repair_seconds", nil)
	for o := RepairHealthy; o <= RepairLost; o++ {
		r.met.repairOut[o] = reg.Counter("bs_repair_total", metrics.Label{Key: "outcome", Value: o.String()})
	}
}

// NewRouter wraps a manager with a placement map. The zero
// configuration stores one copy per chunk (no replication).
func NewRouter(m *Manager) *Router {
	return &Router{
		Manager:  m,
		place:    placement{m: make(map[chunk.Key][]ID)},
		replicas: 1,
		mode:     replicated{n: 1},
		busy:     make(map[chunk.Key]bool),
	}
}

// claimKey marks a chunk as having an in-flight repair or deletion;
// false means another worker holds the claim.
func (r *Router) claimKey(key chunk.Key) bool {
	r.busyMu.Lock()
	defer r.busyMu.Unlock()
	if r.busy[key] {
		return false
	}
	r.busy[key] = true
	return true
}

// releaseKey drops an in-flight claim.
func (r *Router) releaseKey(key chunk.Key) {
	r.busyMu.Lock()
	delete(r.busy, key)
	r.busyMu.Unlock()
}

// SetHealthMonitor wires a monitor into the router's data path: every
// replica store attempt (Put, Get, repair copy, verification probe)
// reports its outcome, so down-ness is deduced from observed errors
// instead of administrative SetDown.
func (r *Router) SetHealthMonitor(h *HealthMonitor) {
	r.cfg.Lock()
	defer r.cfg.Unlock()
	r.health = h
}

// Health returns the wired monitor (nil when health detection is off).
func (r *Router) Health() *HealthMonitor {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	return r.health
}

// SetDegradedHandler registers the callback invoked with the key of any
// chunk the data path observed under-replicated. The handler must not
// block (the core Healer's bounded repair queue drops when full).
func (r *Router) SetDegradedHandler(fn func(chunk.Key)) {
	r.cfg.Lock()
	defer r.cfg.Unlock()
	r.onDegraded = fn
}

// reportError feeds one replica-store outcome to the health monitor.
func (r *Router) reportError(id ID, err error) {
	if h := r.Health(); h != nil {
		h.ReportError(id, err)
	}
}

// noteDegraded reports an under-replicated chunk to the repair hook.
func (r *Router) noteDegraded(key chunk.Key) {
	r.cfg.RLock()
	fn := r.onDegraded
	r.cfg.RUnlock()
	if fn != nil {
		fn(key)
	}
}

// SetLocalDomain declares the failure domain this router's reads
// originate from and turns on zone-local replica preference:
// getFromSet tries same-domain replicas first, then the rest in
// rotation. The failover set is never narrowed — a zone whose local
// copies are all dead still reads remotely.
func (r *Router) SetLocalDomain(domain string) { r.SetReadLocality(domain, true) }

// SetReadLocality sets the reader's failure domain and whether to
// PREFER local replicas. prefer=false keeps the blind rotation but
// still counts local/remote reads — the measurement baseline the E13
// bench compares zone-local selection against. An empty domain turns
// locality (ordering and counting) off.
func (r *Router) SetReadLocality(domain string, prefer bool) {
	r.cfg.Lock()
	r.localDomain = domain
	r.preferLocal = prefer
	r.cfg.Unlock()
}

// LocalDomain returns the configured reader domain ("" = unset).
func (r *Router) LocalDomain() string {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	return r.localDomain
}

// readLocality snapshots the locality configuration.
func (r *Router) readLocality() (domain string, prefer bool) {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	return r.localDomain, r.preferLocal
}

// ReadLocalityStats counts successful reads served from the reader's
// own failure domain vs a remote one, in calls and bytes. Counted only
// while a reader domain is set.
type ReadLocalityStats struct {
	LocalReads  int64
	RemoteReads int64
	LocalBytes  int64
	RemoteBytes int64
}

// CrossFraction is the fraction of read bytes that crossed a domain
// boundary (0 with no reads) — the quantity zone-local selection
// exists to shrink.
func (s ReadLocalityStats) CrossFraction() float64 {
	total := s.LocalBytes + s.RemoteBytes
	if total == 0 {
		return 0
	}
	return float64(s.RemoteBytes) / float64(total)
}

// ReadLocality returns the cumulative local/remote read counters.
func (r *Router) ReadLocality() ReadLocalityStats {
	return ReadLocalityStats{
		LocalReads:  r.locLocalReads.Load(),
		RemoteReads: r.locRemoteReads.Load(),
		LocalBytes:  r.locLocalBytes.Load(),
		RemoteBytes: r.locRemoteBytes.Load(),
	}
}

// SetReadCache wires the shared bounded read-through cache into the
// read path (nil disables caching). The router is the cache's single
// owner: it fills on successful reads and invalidates on every
// placement change.
func (r *Router) SetReadCache(c *ReadCache) {
	r.cfg.Lock()
	r.cache = c
	r.cfg.Unlock()
}

// ReadCache returns the wired cache (nil when caching is off).
func (r *Router) ReadCache() *ReadCache {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	return r.cache
}

// SetReplicas sets the replication degree R: every subsequent Put
// stores R copies on R distinct providers. n < 1 is normalized to 1.
// While erasure coding is on it supersedes R (see SetCoding); the two
// may be set in either order.
func (r *Router) SetReplicas(n int) {
	r.cfg.Lock()
	defer r.cfg.Unlock()
	r.replicas = max(n, 1)
	if _, _, on := r.mode.coding(); !on {
		r.mode = replicated{n: r.replicas}
	}
}

// Replicas returns the effective replication degree (>= 1).
func (r *Router) Replicas() int {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	return r.replicas
}

// placementMode returns the placement strategy in force.
func (r *Router) placementMode() placementMode {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	return r.mode
}

// degree is the number of placement positions every chunk should have:
// R copies, or k+m fragments. Health, scrub and convergence checks all
// compare against it.
func (r *Router) degree() int { return r.placementMode().width() }

// SetWriteQuorum sets how many of a chunk's stores must land for a Put
// to succeed. 0 restores the default of degree-1: a write survives the
// mid-flight loss of one provider, the failure unit this layer is built
// around, while healthy providers still normally yield every copy.
// Values are clamped at use, see WriteQuorum.
func (r *Router) SetWriteQuorum(q int) {
	r.cfg.Lock()
	defer r.cfg.Unlock()
	r.quorum = q
}

// WriteQuorum returns the effective write quorum: the configured value
// (default degree-1) clamped to [floor, degree], where the floor is the
// fewest stores that leave the chunk readable — 1 copy, or k fragments:
// committing with fewer would publish unreadable data.
func (r *Router) WriteQuorum() int {
	r.cfg.RLock()
	q, mode := r.quorum, r.mode
	r.cfg.RUnlock()
	n := mode.width()
	if q == 0 {
		q = n - 1
	}
	return min(max(q, mode.floor()), n)
}

// payload is what one put target is to store: data — a buffer the
// router owns, which the store may keep (chunk.Store.Put) — or exactly
// size bytes still to come from rd.
type payload struct {
	data []byte
	size int64
	rd   io.Reader
}

// Put stores the chunk on the providers the placement mode allocates —
// R distinct providers a copy each, or k+m a fragment each — in parallel
// and records placement. It succeeds — returning the recorded set — as
// soon as at least the write quorum of stores landed; with fewer it
// fails and reports the store errors. Copies that landed on a failed
// Put are orphans: the write's ticket is retired by the caller, so no
// metadata ever references them. The caller keeps data: it enters the
// put core as a stream does, so every store is handed a buffer the
// router owns.
func (r *Router) Put(key chunk.Key, data []byte) ([]ID, error) {
	return r.put(key, int64(len(data)), bytes.NewReader(data))
}

// put is the one put core: read a fan-out's bytes, allocate targets,
// store on each (alone when there is one target, in parallel otherwise),
// apply the write quorum, record placement, note a chunk born degraded,
// feed bs_chunk_put_*. The caller bounded size.
func (r *Router) put(key chunk.Key, size int64, rd io.Reader) ([]ID, error) {
	var start time.Time
	if r.met.putSec != nil {
		start = time.Now()
	}
	mode := r.placementMode()
	quorum := r.WriteQuorum()
	var data []byte
	if mode.width() > 1 {
		// Fanning out needs the bytes in hand: one buffer, which the
		// stores keep — shared by the replicas, sliced by the data
		// fragments. It is filled before any target is allocated, so a
		// short stream leaves no store touched and the allocation cursor
		// where it was.
		data = make([]byte, size)
		if _, err := io.ReadFull(rd, data); err != nil {
			return nil, fmt.Errorf("provider: stream %s: %w", key, err)
		}
	}
	targets, err := mode.allocate(r, key)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(targets))
	if len(targets) == 1 {
		// A lone target stores the chunk whole (only replication at R=1
		// is this narrow), so it is handed the stream itself: from the
		// socket into the store unbuffered, and the default write path
		// runs no fan-out machinery.
		errs[0] = r.putOne(targets[0], key, payload{size: size, rd: rd})
	} else {
		parts := mode.payloads(data)
		var wg sync.WaitGroup
		for i, p := range targets {
			wg.Add(1)
			go func(i int, p *Provider) {
				defer wg.Done()
				errs[i] = r.putOne(p, key, payload{data: parts[i]})
			}(i, p)
		}
		wg.Wait()
	}
	landed := 0
	var failures []error
	for i, p := range targets {
		if errs[i] == nil {
			landed++
		} else {
			failures = append(failures, fmt.Errorf("provider %d: %w", p.ID(), errs[i]))
		}
	}
	if landed < quorum {
		return nil, fmt.Errorf("provider: write quorum not met (%d of %d stores landed, need %d): %w",
			landed, len(targets), quorum, errors.Join(failures...))
	}
	stored := mode.recorded(targets, errs)
	r.place.mu.Lock()
	r.place.m[key] = stored
	r.place.mu.Unlock()
	if landed < len(targets) {
		// Quorum-committed short of full degree: born degraded (a
		// provider died mid-flight). Hand it to read-repair now rather
		// than waiting for the scrubber to find it.
		r.noteDegraded(key)
	}
	r.met.putTotal.Inc()
	r.met.putBytes.Add(size)
	if r.met.putSec != nil {
		r.met.putSec.ObserveSince(start)
	}
	// Reads use the installed set uncopied (placed), so the caller gets
	// a copy of its own.
	return slices.Clone(stored), nil
}

// putOne stores one payload on one provider, treating a down provider
// as a failed store (the machine died between allocation and the write
// reaching it). The outcome of every real store attempt feeds the
// health monitor.
func (r *Router) putOne(p *Provider, key chunk.Key, pl payload) error {
	if p.Down() {
		return ErrProviderDown
	}
	var err error
	if pl.rd != nil {
		err = p.Store().PutFromReader(key, pl.size, pl.rd)
	} else {
		err = p.Store().Put(key, pl.data)
	}
	r.reportError(p.ID(), err)
	return err
}

// chunkRead is one sub-range read on its way through the router. stream
// says how the bytes are to leave the store: false, Store.Get into a
// slice; true, Store.OpenReader as a stream. Nothing else distinguishes
// the two kinds of read — with the consequence that a byte read fails
// over past a store error that strikes mid-read, while a stream read
// fails over only at open: once a stream is handed out its errors
// surface to the consumer, because bytes may already have left for it.
type chunkRead struct {
	key         chunk.Key
	off, length int64
	stream      bool
}

// served is what a store handed back for a chunkRead: data for a byte
// read, rc (the caller's to Close) for a stream read.
type served struct {
	data []byte
	rc   io.ReadCloser
}

// Get reads a chunk sub-range from the providers placement names.
func (r *Router) Get(key chunk.Key, off, length int64) ([]byte, error) {
	out, err := r.read(chunkRead{key: key, off: off, length: length})
	return out.data, err
}

// GetFrom is Get: placement is the one answer to where a chunk lives.
//
// Deprecated: replicas is ignored and fresh is always nil; call Get.
func (r *Router) GetFrom(_ []ID, key chunk.Key, off, length int64) (data []byte, fresh []ID, err error) {
	data, err = r.Get(key, off, length)
	return data, nil, err
}

// read is the one read core: it reads q from the set placement names.
// Every store attempt feeds the health monitor (in the mode's read), a
// read that skipped or failed past a copy feeds read-repair, and
// bs_chunk_get_seconds sees each read that reached a store once.
//
// The read cache has one rule for both modes. Byte reads are served
// from it and fill it. Stream reads bypass it: they exist to move a
// payload store→socket without materializing it, which a cache fill or
// a cached copy would do.
func (r *Router) read(q chunkRead) (served, error) {
	r.cfg.RLock()
	mode, cache := r.mode, r.cache
	r.cfg.RUnlock()
	if q.stream {
		cache = nil
	}
	if cache != nil {
		if data, hit := cache.GetData(q.key, q.off, q.length); hit {
			return served{data: data}, nil
		}
	}
	var start time.Time
	if r.met.getSec != nil {
		start = time.Now()
	}
	ids, ok := r.placed(q.key)
	if !ok {
		return served{}, fmt.Errorf("%w: %s", chunk.ErrNotFound, q.key)
	}
	out, skips, storeErrs, err := mode.read(r, ids, q)
	if err != nil {
		return served{}, err
	}
	if skips+storeErrs > 0 {
		// Every copy skipped or failed is one placement names: the chunk
		// is below degree.
		r.noteDegraded(q.key)
	}
	if cache != nil && q.off == 0 && len(out.data) > 0 {
		// The cache stores prefixes, so it takes the common whole-fragment
		// read; and it owns what it is given, so a copy.
		cache.FillData(q.key, append([]byte(nil), out.data...))
	}
	if r.met.getSec != nil {
		r.met.getSec.ObserveSince(start)
	}
	return out, nil
}

// setPlacement installs a chunk's new replica set and drops its cached
// data (still valid — chunks are immutable — but dropping it keeps the
// invalidation surface trivial). Every placement mutation after the
// initial Put goes through here or through DeleteReplicas' retire path;
// Put installs directly because nothing can be cached for a key that
// was never readable. ids is the router's from here on: placement
// installs a new slice on every change and never writes one it holds.
func (r *Router) setPlacement(key chunk.Key, ids []ID) {
	r.place.mu.Lock()
	r.place.m[key] = ids
	r.place.mu.Unlock()
	r.invalidateCached(key)
}

// invalidateCached drops a chunk's read-cache entry, if a cache is
// wired. A read racing this may re-fill the entry a moment later;
// that is safe (see the ReadCache contract) because data is immutable.
func (r *Router) invalidateCached(key chunk.Key) {
	if c := r.ReadCache(); c != nil {
		c.Invalidate(key)
	}
}

// Locate returns the replica set recorded for the key: the one answer
// to where a chunk lives.
func (r *Router) Locate(key chunk.Key) ([]ID, bool) {
	ids, ok := r.placed(key)
	return slices.Clone(ids), ok
}

// placed is Locate without the copy, for the read core: the set is
// never written once installed (see setPlacement), so it is the
// caller's to read, not to write.
func (r *Router) placed(key chunk.Key) ([]ID, bool) {
	r.place.mu.RLock()
	ids, ok := r.place.m[key]
	r.place.mu.RUnlock()
	return ids, ok
}

// Keys returns a snapshot of every chunk key the placement map knows,
// sorted by blob, version and index: the healer's scrub walk, which
// then visits each blob's chunks oldest version first, in the same
// order every run.
func (r *Router) Keys() []chunk.Key {
	r.place.mu.RLock()
	keys := make([]chunk.Key, 0, len(r.place.m))
	for k := range r.place.m {
		keys = append(keys, k)
	}
	r.place.mu.RUnlock()
	slices.SortFunc(keys, func(a, b chunk.Key) int {
		return cmp.Or(cmp.Compare(a.Blob, b.Blob), cmp.Compare(a.Version, b.Version), cmp.Compare(a.Index, b.Index))
	})
	return keys
}

// ErrChunkBusy is returned by DeleteReplicas when the chunk has an
// in-flight repair; the collector retries on its next pass.
var ErrChunkBusy = errors.New("provider: chunk has an in-flight repair")

// DeleteReplicas removes a chunk from every reachable replica and
// retires its placement entry — the data-path end of version garbage
// collection. Only chunks the collector proved unreferenced by every
// retained snapshot may be deleted.
//
// Per replica: a provider flagged down is skipped (its copy is
// unreachable; like repair, deletion never talks to dead machines —
// the copy becomes an orphan if the machine revives), a store
// answering ErrNotFound already lost the copy (success), and a store
// error leaves the replica recorded so a later pass retries it; every
// real store attempt reports its outcome to the health monitor, so a
// silently dead machine discovered by GC traffic trips detection too.
// When replicas remain the placement entry shrinks to exactly those
// and a wrapped error reports them; when none remain the entry is
// removed. A chunk currently being repaired fails with ErrChunkBusy.
func (r *Router) DeleteReplicas(key chunk.Key) (removed int, bytes int64, err error) {
	if !r.claimKey(key) {
		return 0, 0, fmt.Errorf("%w: %s", ErrChunkBusy, key)
	}
	defer r.releaseKey(key)
	ids, ok := r.Locate(key)
	if !ok {
		return 0, 0, nil // never stored or already collected
	}
	var remaining []ID
	var failures []error
	for _, id := range ids {
		s := r.liveStore(id)
		if s == nil {
			continue // unreachable replica: orphaned, not retried
		}
		size, lerr := s.Len(key)
		if derr := r.evict(id, key); derr != nil {
			remaining = append(remaining, id)
			failures = append(failures, fmt.Errorf("provider %d: %w", id, derr))
		} else if lerr == nil {
			removed++ // a copy already gone is not counted
			bytes += size
		}
	}
	r.place.mu.Lock()
	if len(remaining) == 0 {
		delete(r.place.m, key)
	} else {
		r.place.m[key] = remaining
	}
	r.place.mu.Unlock()
	// The chunk's copies moved or vanished either way: drop whatever
	// the read tier cached for it.
	r.invalidateCached(key)
	if len(remaining) > 0 {
		return removed, bytes, fmt.Errorf("provider: %d replicas of %s not deleted: %w",
			len(remaining), key, errors.Join(failures...))
	}
	return removed, bytes, nil
}

// ProviderUsage is one provider's space accounting.
type ProviderUsage struct {
	Provider ID
	Domain   string // failure-domain label ("" on a flat pool)
	Chunks   int
	Bytes    int64
	Down     bool
}

// Usage reports per-provider chunk counts and stored bytes with the
// provider's failure domain, in registration order — the operator's
// view of where space lives (and in which loss unit), and the
// verification feed for reclamation accounting.
func (r *Router) Usage() []ProviderUsage {
	providers := r.Providers()
	out := make([]ProviderUsage, 0, len(providers))
	for _, p := range providers {
		chunks, bytes := p.Store().Usage()
		out = append(out, ProviderUsage{Provider: p.ID(), Domain: p.Domain(), Chunks: chunks, Bytes: bytes, Down: p.Down()})
	}
	return out
}
