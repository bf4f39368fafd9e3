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
//   - Router.put is the one put core: allocate targets, store on each
//     (putOne), apply the write quorum, record placement, note a chunk
//     born degraded. Put and PutStream are its entry points and differ
//     only in the payload they hand it, bytes or a reader.
//   - Router.read is the one read core: the caller's hint, then recorded
//     placement, the fresh decision, read-repair, the ReadCache rule.
//     Get, GetFrom and OpenFrom are its entry points and differ only in
//     how the bytes leave a store (chunkRead): into a slice or as a
//     stream.
//   - placementMode (placement.go) is the seam both cores and RepairChunk
//     are written against, and the only code that knows whether chunks
//     are replicated (placement.go) or erasure coded (coded.go): width
//     and quorum floor, what each target stores and what is recorded,
//     whether a hint may be read through, the read algorithm, repair.
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
//     this spread, not just the replica count: re-replication places
//     new copies in domains the survivors do not cover, and a chunk at
//     full degree whose live replicas co-locate while a spare live
//     domain exists is re-spread by moving one copy (RepairChunk).
//   - Router.GetFrom and OpenFrom (and every other blob.DataService
//     implementation) return fresh == nil when the set the caller's
//     replica hint names served the read. A non-nil fresh set means the
//     hint is stale — the read was served from a different authoritative
//     placement, or placement disagrees with the hint after failover —
//     and the caller should cache fresh in place of the hint.
//   - Read tier: with a local domain set (SetLocalDomain) reads try
//     same-domain replicas first, then rotate the rest — never
//     narrowing the failover set, only reordering it. With a ReadCache
//     wired (SetReadCache) BYTE reads are served read-through: chunk
//     data and fresh replica-set hints are cached on success, and
//     because chunks are immutable the ONLY invalidation signal is a
//     placement change — every post-Put placement mutation (RepairChunk,
//     improveSpread, trimExcess, DeleteReplicas) drops the chunk's
//     cache entry. A stale cached hint can never fail a read: at worst
//     it costs one extra failover, which refreshes the entry. STREAM
//     reads (OpenFrom) bypass the cache in both placement modes — and
//     every network client reads by stream (the framed plane), so a
//     daemon's cache holds chunk data for in-process readers only.
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
	"errors"
	"fmt"
	"io"
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

// NewPool builds a manager with n in-memory providers, each metered by
// its own exclusive meter using the given cost model. It returns the
// manager and the meters for inspection.
func NewPool(n int, model iosim.CostModel) (*Manager, []*iosim.Meter) {
	return NewPoolInDomains(n, 0, model)
}

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

// NewPoolInDomains is NewPool with the providers split into the given
// number of failure domains — contiguous blocks labeled per
// DomainLabel, modeling machines racked together. domains <= 1 builds
// the flat single-domain pool.
func NewPoolInDomains(n, domains int, model iosim.CostModel) (*Manager, []*iosim.Meter) {
	m := NewManager()
	meters := make([]*iosim.Meter, 0, n)
	for i := 0; i < n; i++ {
		meter := iosim.NewMeter(model, true)
		meters = append(meters, meter)
		m.Register(NewInDomain(ID(i), chunk.NewMemStore(meter), DomainLabel(i, n, domains)))
	}
	return m, meters
}

// NewFaultPool builds the same pool as NewPool with each provider's
// store wrapped in a chunk.FaultStore, so callers can kill a machine
// at the STORE level (every operation errors) — the failure that
// error-driven detection must notice without an administrative
// SetDown. Returns the manager and the fault stores by provider index.
func NewFaultPool(n int, model iosim.CostModel) (*Manager, []*chunk.FaultStore) {
	return NewFaultPoolInDomains(n, 0, model)
}

// NewFaultPoolInDomains is NewFaultPool with the providers split into
// failure domains exactly as NewPoolInDomains does.
func NewFaultPoolInDomains(n, domains int, model iosim.CostModel) (*Manager, []*chunk.FaultStore) {
	m := NewManager()
	faults := make([]*chunk.FaultStore, 0, n)
	for i := 0; i < n; i++ {
		fs := chunk.NewFaultStore(chunk.NewMemStore(iosim.NewMeter(model, true)))
		faults = append(faults, fs)
		m.Register(NewInDomain(ID(i), fs, DomainLabel(i, n, domains)))
	}
	return m, faults
}

// NewURLPoolInDomains builds a pool whose provider stores come from
// the chunk backend factory: the pool-level URL is specialized per
// provider (disk schemes get a /pN subdirectory) and opened with an
// exclusive meter, so -store mem:// matches NewPoolInDomains exactly
// while disk:// and null:// swap the medium without touching placement.
// With faulty set, every store is additionally wrapped in a
// chunk.FaultStore (reusing the wrapper when the URL already carries
// the fault+ prefix) and the handles are returned by provider index.
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

	// cache, when set, makes reads read-through: data and fresh hints
	// fill it, placement changes invalidate it.
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
// placement change, so callers above (blob) only ever consult it for
// hints.
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

// payload is what one put target is to store: data, or — a streamed put
// — exactly size bytes still to come from rd. size is read only of a
// payload with rd set and of the one the put core is handed.
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
// metadata ever references them.
func (r *Router) Put(key chunk.Key, data []byte) ([]ID, error) {
	return r.put(key, payload{data: data, size: int64(len(data))})
}

// put is the one put core: allocate targets, store on each (alone when
// there is one target, in parallel otherwise), apply the write quorum,
// record placement, note a chunk born degraded, feed bs_chunk_put_*.
func (r *Router) put(key chunk.Key, src payload) ([]ID, error) {
	var start time.Time
	if r.met.putSec != nil {
		start = time.Now()
	}
	mode := r.placementMode()
	quorum := r.WriteQuorum()
	targets, err := mode.allocate(r, key)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(targets))
	if len(targets) == 1 {
		// A lone target stores the chunk whole (only replication at R=1
		// is this narrow), so it is handed the source itself: a stream
		// goes from the socket into the store unbuffered, and the default
		// write path runs no fan-out machinery.
		errs[0] = r.putOne(targets[0], key, src)
	} else {
		if src.rd != nil {
			// Fanning out needs the bytes in hand; the caller bounded size.
			src.data = make([]byte, src.size)
			if _, err := io.ReadFull(src.rd, src.data); err != nil {
				return nil, fmt.Errorf("provider: stream %s: %w", key, err)
			}
		}
		parts := mode.payloads(src.data)
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
	r.met.putBytes.Add(src.size)
	if r.met.putSec != nil {
		r.met.putSec.ObserveSince(start)
	}
	return stored, nil
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

// Get reads a chunk sub-range from recorded placement: GetFrom with no
// hint to try.
func (r *Router) Get(key chunk.Key, off, length int64) ([]byte, error) {
	out, _, err := r.read(nil, chunkRead{key: key, off: off, length: length})
	return out.data, err
}

// GetFrom reads a chunk sub-range trying the given replica set first —
// the hint carried by chunk.Ref in metadata — and recorded placement
// after it. fresh is nil when the set the hint names served the read,
// and otherwise the set the caller should hold in its place (blob
// caches it, so later reads of the chunk skip the dead copies).
func (r *Router) GetFrom(replicas []ID, key chunk.Key, off, length int64) (data []byte, fresh []ID, err error) {
	out, fresh, err := r.read(replicas, chunkRead{key: key, off: off, length: length})
	return out.data, fresh, err
}

// read is the one read core. It tries the caller's hint where the
// placement mode reads through hints, falls back to recorded placement,
// and decides fresh: nil exactly when the read was served by the set
// the hint names. Every store attempt feeds the health monitor (in the
// mode's read), a read that needed failover feeds read-repair by
// maybeNoteDegraded's rule, and bs_chunk_get_seconds sees each read that
// reached a store once.
//
// The read cache has one rule for both modes. Byte reads are served
// from it and fill it, data and fresh sets alike, and a cached set that
// differs from the caller's hint — left by an earlier read that
// corrected a stale one — supersedes it. Stream reads bypass it: they
// exist to move a payload store→socket without materializing it, which
// a cache fill or a cached copy would do.
func (r *Router) read(hint []ID, q chunkRead) (out served, fresh []ID, err error) {
	mode := r.placementMode()
	var cache *ReadCache
	if !q.stream {
		cache = r.ReadCache()
	}
	try := hint
	if cache != nil {
		data, hit := cache.GetData(q.key, q.off, q.length)
		if h, ok := cache.Hint(q.key); ok && !mode.sameHint(h, hint) {
			try, fresh = h, h
		}
		if hit {
			return served{data: data}, fresh, nil
		}
	}
	var start time.Time
	if r.met.getSec != nil {
		start = time.Now()
	}
	var skips, storeErrs int
	viaHint := len(try) > 0 && mode.readsHints()
	if viaHint {
		out, skips, storeErrs, err = mode.read(r, try, q)
		viaHint = err == nil
	}
	if viaHint {
		if skips+storeErrs > 0 {
			// The hint served, but not at once: it names a copy that is
			// gone. Hand back what placement records if that differs, or
			// every later read walks the half-dead hint again.
			if ids, ok := r.Locate(q.key); ok && !mode.sameHint(ids, try) {
				fresh = ids
				r.fillHint(cache, q.key, ids)
			}
		}
	} else {
		// Fallback: no hint to read through, or every copy it names
		// failed (stale after a repair moved them). Snapshot the
		// authoritative set ONCE and read from exactly that snapshot, so
		// the fresh set returned is the set that served the read — reading
		// and then locating as two acquisitions (as this path once did)
		// let a repair slip between them and hand the caller a set that
		// never served anything.
		ids, ok := r.Locate(q.key)
		if !ok {
			return served{}, nil, fmt.Errorf("%w: %s", chunk.ErrNotFound, q.key)
		}
		if out, skips, storeErrs, err = mode.read(r, ids, q); err != nil {
			return served{}, nil, err
		}
		fresh = ids
		if mode.sameHint(ids, hint) {
			fresh = nil
		}
		r.fillHint(cache, q.key, ids)
	}
	if skips+storeErrs > 0 {
		r.maybeNoteDegraded(q.key, storeErrs)
	}
	if cache != nil && q.off == 0 && len(out.data) > 0 {
		// The cache stores prefixes, so it takes the common whole-fragment
		// read; and it owns what it is given, so a copy.
		cache.FillData(q.key, append([]byte(nil), out.data...))
	}
	if r.met.getSec != nil {
		r.met.getSec.ObserveSince(start)
	}
	return out, fresh, nil
}

// fillHint caches a fresh replica set alongside any cached data.
func (r *Router) fillHint(cache *ReadCache, key chunk.Key, ids []ID) {
	if cache != nil {
		cache.FillHint(key, ids)
	}
}

// maybeNoteDegraded decides whether a read that needed failover should
// feed the repair queue. A real store error is a strong signal (the
// copy is gone or the machine is dying). A flag-only skip is not by
// itself: a permanently stale metadata hint skips the same long-dead
// provider on every read even after repair restored the chunk, and
// those enqueues would crowd genuinely degraded chunks out of the
// bounded queue — so flag skips enqueue only when placement agrees the
// chunk is below degree.
func (r *Router) maybeNoteDegraded(key chunk.Key, storeErrs int) {
	if storeErrs > 0 {
		r.noteDegraded(key)
		return
	}
	if live, want, known := r.ReplicaHealth(key); known && live < want {
		r.noteDegraded(key)
	}
}

// setPlacement installs a chunk's new replica set and invalidates any
// cached state for it: placement changed, so a cached hint is stale
// (the cached DATA would still be valid — chunks are immutable — but
// dropping the whole entry keeps the invalidation surface trivial).
// Every placement mutation after the initial Put goes through here or
// through DeleteReplicas' retire path; Put installs directly because
// nothing can be cached for a key that was never readable.
func (r *Router) setPlacement(key chunk.Key, ids []ID) {
	r.place.mu.Lock()
	r.place.m[key] = ids
	r.place.mu.Unlock()
	r.invalidateCached(key)
}

// invalidateCached drops a chunk's read-cache entry, if a cache is
// wired. A read racing this may re-fill the entry a moment later;
// that is safe (see the ReadCache contract) because data is immutable
// and a stale re-filled hint self-corrects on its next use.
func (r *Router) invalidateCached(key chunk.Key) {
	if c := r.ReadCache(); c != nil {
		c.Invalidate(key)
	}
}

// Locate returns the replica set recorded for the key.
func (r *Router) Locate(key chunk.Key) ([]ID, bool) {
	r.place.mu.RLock()
	defer r.place.mu.RUnlock()
	ids, ok := r.place.m[key]
	if !ok {
		return nil, false
	}
	out := make([]ID, len(ids))
	copy(out, ids)
	return out, true
}

// RepairStats summarizes one re-replication pass.
type RepairStats struct {
	Scanned  int // chunks examined
	Degraded int // chunks found below the replication degree
	Copied   int // new copies written
	Repaired int // chunks restored to full degree
	Lost     int // chunks with no surviving replica (data loss)
	Failed   int // chunks whose repair attempt failed
}

// Keys returns a snapshot of every chunk key the placement map knows.
// The daemon-side scrubber walks this when it has no blob handles to
// enumerate published versions with.
func (r *Router) Keys() []chunk.Key {
	r.place.mu.RLock()
	defer r.place.mu.RUnlock()
	keys := make([]chunk.Key, 0, len(r.place.m))
	for k := range r.place.m {
		keys = append(keys, k)
	}
	return keys
}

// liveReplicas splits a chunk's recorded replica set into verified-live
// and dead members. A replica is live when its provider is known, not
// flagged down, and — when verify is set — its store answers a Len
// probe for the chunk. Verification is what lets the scrubber and the
// repair path detect a dead machine BEFORE the health monitor has
// flagged it. With report set, probe outcomes feed the monitor (so
// scrub traffic itself trips detection); passive observers like
// UnderReplicated probe silently to avoid acting as detectors.
func (r *Router) liveReplicas(key chunk.Key, ids []ID, verify, report bool) (live []ID) {
	for _, id := range ids {
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		if verify {
			_, err := p.Store().Len(key)
			if report {
				r.reportError(id, err)
			}
			if err != nil {
				continue
			}
		}
		live = append(live, id)
	}
	return live
}

// ReplicaHealth reports how many of a chunk's recorded replicas (or
// coded fragments) are live (by down flags alone) against the
// configured placement degree.
func (r *Router) ReplicaHealth(key chunk.Key) (live, want int, known bool) {
	ids, ok := r.Locate(key)
	if !ok {
		return 0, r.degree(), false
	}
	return len(r.liveReplicas(key, ids, false, false)), r.degree(), true
}

// VerifyReplicas is the scrubber's per-chunk check: it probes every
// recorded replica's (or fragment's) store — reporting outcomes to the
// health monitor — and returns the verified-live count against the
// placement degree.
func (r *Router) VerifyReplicas(key chunk.Key) (live, want int, known bool) {
	ids, ok := r.Locate(key)
	if !ok {
		return 0, r.degree(), false
	}
	return len(r.liveReplicas(key, ids, true, true)), r.degree(), true
}

// UnderReplicated counts placement entries whose verified-live replica
// (or fragment) count is below the placement degree — the healer's
// convergence metric: zero means every known chunk is back at full
// degree. It is a passive observer: its probes do NOT feed the health
// monitor, so asserting convergence never doubles as failure detection.
func (r *Router) UnderReplicated() int {
	want := r.degree()
	n := 0
	for _, key := range r.Keys() {
		ids, ok := r.Locate(key)
		if !ok {
			continue
		}
		if len(r.liveReplicas(key, ids, true, false)) < want {
			n++
		}
	}
	return n
}

// RepairOutcome classifies one RepairChunk attempt.
type RepairOutcome int

// Repair outcomes.
const (
	// RepairHealthy: the chunk already had R verified-live copies.
	RepairHealthy RepairOutcome = iota
	// RepairRepaired: new copies restored the chunk to full degree.
	RepairRepaired
	// RepairPartial: some copies were written but the chunk is still
	// below degree (allocation or store failures); the scrubber will
	// re-find it next pass.
	RepairPartial
	// RepairLost: no verified-live replica survives — the data is gone.
	RepairLost
)

func (o RepairOutcome) String() string {
	switch o {
	case RepairHealthy:
		return "healthy"
	case RepairRepaired:
		return "repaired"
	case RepairPartial:
		return "partial"
	case RepairLost:
		return "lost"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// RepairChunk re-replicates one chunk: it verifies which recorded
// replicas still hold the data (probing stores, so flag-lagging dead
// machines are caught), copies from a survivor onto enough new distinct
// providers to restore the replication degree — placing the new copies
// in failure domains the survivors do not cover — and updates
// placement. A chunk already at full degree whose live replicas
// co-locate in fewer domains than the pool could spread them over is
// re-spread: one copy moves to an uncovered domain (restoring the
// spread invariant, not just the count). copied reports how many new
// copies were written, moves included. Unknown keys return
// RepairHealthy (nothing recorded to restore), as does a chunk whose
// in-flight claim is held by another worker — a concurrent deletion
// (the chunk is going away; repairing it would resurrect garbage) or
// a concurrent repair (which will restore it itself).
func (r *Router) RepairChunk(key chunk.Key) (outcome RepairOutcome, copied int, err error) {
	var start time.Time
	if r.met.repairSec != nil {
		start = time.Now()
	}
	defer func() {
		if outcome >= RepairHealthy && outcome <= RepairLost {
			r.met.repairOut[outcome].Inc()
		}
		if r.met.repairSec != nil {
			r.met.repairSec.ObserveSince(start)
		}
	}()
	if !r.claimKey(key) {
		return RepairHealthy, 0, nil
	}
	defer r.releaseKey(key)
	return r.placementMode().repair(r, key)
}

// Repair is the full re-replication pass: it scans the placement map
// for chunks whose live replica count dropped below the replication
// degree (a provider died), copies them from a surviving replica onto
// new distinct providers, and updates placement. Chunks with no
// surviving replica are counted as Lost — with R >= 2 that requires
// losing multiple machines between repairs. Safe to run while writes
// proceed; each chunk is repaired independently. The background healer
// (core.Healer) runs the same repair chunk-by-chunk, rate limited.
func (r *Router) Repair() RepairStats {
	var st RepairStats
	for _, key := range r.Keys() {
		st.Scanned++
		// RepairChunk verifies replicas itself (store probes, so a
		// store-dead but flag-live replica — machine died, detector
		// not yet tripped — still counts as degraded and a manual
		// `bsctl repair` heals it without waiting on the monitor), so
		// the outcome doubles as the degradation classification.
		outcome, copied, _ := r.RepairChunk(key)
		st.Copied += copied
		switch outcome {
		case RepairHealthy:
			// At full degree; not degraded.
		case RepairRepaired:
			st.Degraded++
			st.Repaired++
		case RepairLost:
			st.Degraded++
			st.Lost++
		default:
			st.Degraded++
			st.Failed++
		}
	}
	return st
}

// liveDomainCount counts failure domains with at least one flag-live
// provider — the spread width currently achievable. A pool that is
// not fully tagged counts as ONE domain: during a topology transition
// the spread machinery (audit, spread repair, violation checks) stays
// inert, for the same reason allocateSpread stays flat (see
// domainPromise).
func (m *Manager) liveDomainCount() int {
	if _, full := m.domainPromise(); !full {
		return 1
	}
	seen := make(map[string]bool)
	for _, p := range m.Providers() {
		if !p.Down() {
			seen[p.Domain()] = true
		}
	}
	return len(seen)
}

// spreadViolatedSet reports whether a replica set (its flag-live
// members) spans fewer distinct failure domains than it could: the
// invariant is min(R, set size, live domains) distinct domains. A flat
// pool (one domain) never violates.
func (r *Router) spreadViolatedSet(ids []ID) bool {
	return r.spreadViolatedIn(ids, r.liveDomainCount())
}

// spreadViolatedIn is spreadViolatedSet with the live-domain count
// precomputed, so a whole-placement scan walks the provider list once
// instead of once per chunk.
func (r *Router) spreadViolatedIn(ids []ID, liveDoms int) bool {
	if liveDoms <= 1 {
		return false
	}
	covered := make(map[string]bool)
	n := 0
	for _, id := range ids {
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		n++
		covered[p.Domain()] = true
	}
	achievable := r.degree()
	if n < achievable {
		achievable = n
	}
	if liveDoms < achievable {
		achievable = liveDoms
	}
	return len(covered) < achievable
}

// SpreadViolated reports whether the chunk's recorded replica set
// co-locates in fewer failure domains than the pool could spread it
// over (down flags only, no store probes — the count path catches dead
// copies). The scrubber feeds violations into the repair queue, where
// RepairChunk re-spreads them.
func (r *Router) SpreadViolated(key chunk.Key) bool {
	return r.SpreadViolatedWith(key, r.liveDomainCount())
}

// LiveDomains returns the number of failure domains with at least one
// flag-live provider. Callers checking many chunks (the scrubber)
// compute it once per pass and hand it to SpreadViolatedWith, instead
// of re-walking the provider list per chunk.
func (r *Router) LiveDomains() int { return r.liveDomainCount() }

// SpreadViolatedWith is SpreadViolated with the live-domain count
// precomputed (see LiveDomains).
func (r *Router) SpreadViolatedWith(key chunk.Key, liveDomains int) bool {
	if liveDomains <= 1 {
		return false
	}
	ids, ok := r.Locate(key)
	if !ok {
		return false
	}
	return r.spreadViolatedIn(ids, liveDomains)
}

// PlacementSuspect is the scrubber's placement-quality check for a
// chunk whose LIVE count already matches the degree: true when the
// live replicas violate the domain spread, or when the RECORDED set
// size differs from the degree — an above-degree set left by a failed
// spread-move eviction, or a stale entry naming a dead provider
// alongside a full live set (the probe-based live count cannot see
// either). RepairChunk resolves both: it prunes stale members and
// trims above-degree copies.
func (r *Router) PlacementSuspect(key chunk.Key, liveDomains int) bool {
	if liveDomains <= 1 {
		return false
	}
	ids, ok := r.Locate(key)
	if !ok {
		return false
	}
	if len(ids) != r.degree() {
		return true
	}
	return r.spreadViolatedIn(ids, liveDomains)
}

// SpreadAudit scans the placement map for chunks whose live replicas
// violate the domain-spread invariant — the operator's correlated-loss
// exposure report (bsctl health). Like UnderReplicated it is a passive
// observer: no store probes, no health reports.
func (r *Router) SpreadAudit() []chunk.Key {
	liveDoms := r.liveDomainCount()
	if liveDoms <= 1 {
		return nil
	}
	var out []chunk.Key
	for _, key := range r.Keys() {
		if ids, ok := r.Locate(key); ok && r.spreadViolatedIn(ids, liveDoms) {
			out = append(out, key)
		}
	}
	return out
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
		p := r.byID(id)
		if p == nil || p.Down() {
			continue // unreachable replica: orphaned, not retried
		}
		size, lerr := p.Store().Len(key)
		if lerr != nil {
			size = 0
		}
		derr := p.Store().Delete(key)
		r.reportError(id, derr)
		if derr == nil {
			removed++
			bytes += size
			continue
		}
		if errors.Is(derr, chunk.ErrNotFound) {
			continue // copy already gone
		}
		remaining = append(remaining, id)
		failures = append(failures, fmt.Errorf("provider %d: %w", id, derr))
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
