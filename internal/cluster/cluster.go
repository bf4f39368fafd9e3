// Package cluster assembles deployments of both storage systems — the
// versioning service (version manager + metadata shards + data
// providers) and the Lustre-like locking file system — either
// unmetered for fast tests or with the synthetic Grid'5000-style cost
// models for experiments. The versioning service is built one role at
// a time: NewVM, NewMeta and NewData, then NewReaper over all three.
// NewVersioning runs every one of them in one process, and blobseerd
// runs the ones its -roles name, so a daemon's node and an in-process
// deployment are the same assembly. Examples, commands and tests build
// their systems here. The wall-clock benchmark (benchmark/) wires its
// node by hand, through the components' public constructors and
// setters, on purpose: its frozen shape must not move when this
// package does.
package cluster

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/lockfs"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// Env describes the simulated hardware: storage elements and their
// cost models. The zero value of the model fields means "free"
// (unit-test speed); Metered() fills in the representative Grid'5000
// models.
type Env struct {
	// Providers is the number of data providers (versioning) or OSTs
	// (locking baseline); both systems always get the same number so
	// comparisons are fair.
	Providers int
	// MetaShards is the number of metadata providers (versioning only).
	MetaShards int
	// ChunkSize is the stripe unit: the versioning page size and the
	// locking file system's stripe size.
	ChunkSize int64
	// Replicas is the replication degree R of the versioning data
	// layer: every chunk is stored on R distinct providers. 0 or 1
	// means no replication. Must not exceed Providers.
	Replicas int
	// Domains splits the data providers into that many failure domains
	// (racks/zones): equal contiguous blocks labeled zone0, zone1, ...
	// Replica placement then spreads each chunk's R copies across
	// distinct domains — with Domains >= Replicas the spread is an
	// invariant (writes fail typed rather than co-locate), so losing
	// one whole domain never loses a published byte. 0 or 1 keeps the
	// flat single-domain pool of earlier PRs.
	Domains int
	// WriteQuorum is how many of the R copies (or, with Coding, the
	// k+m fragments) must land for a write to commit. 0 selects the
	// default of R-1 (minimum 1) — with Coding, k+m-1 (minimum k) —
	// which lets a write survive the mid-flight loss of one provider.
	WriteQuorum int
	// Coding selects erasure-coded chunk placement instead of R-way
	// replication: "rs-k+m" (e.g. "rs-4+2") stripes every chunk into k
	// data + m parity fragments on k+m distinct providers, surviving
	// any m fragment losses at a storage overhead of (k+m)/k instead
	// of R. Mutually exclusive with Replicas > 1; requires k+m <=
	// Providers. Empty keeps replication. Boot-time only — a pool
	// written under one mode must not be reopened under the other.
	Coding string

	// SelfHeal enables the autonomous repair loop: an error-driven
	// provider HealthMonitor wired into the router plus a core.Healer
	// (a background scrub of the router's placement map + a bounded
	// read-repair queue), run as blobseerd -self-heal runs it. Off by
	// default: deployments then behave exactly as before, with
	// replication managed administratively (bsctl down/repair).
	SelfHeal bool
	// Health configures the failure detector (SelfHeal): the error
	// count that marks a provider down and its probation.
	Health provider.HealthConfig
	// Healer configures the scrub and repair budgets per tick, the
	// repair queue and the tick period (SelfHeal).
	Healer core.HealerConfig
	// FaultInjection wraps every provider's chunk store in a
	// chunk.FaultStore (exposed as Versioning.Faults) so tests can
	// kill a machine at the store level — the failure the health
	// monitor must detect from errors alone.
	FaultInjection bool

	// GC enables the version-lifecycle garbage collector (core.Reaper):
	// dropped versions' exclusively referenced chunks are deleted from
	// every reachable replica at a bounded rate. The reaper finds blobs
	// in the version manager's catalog. Off by default — versions then
	// behave exactly as before (retained forever unless the operator
	// drops them, and even then nothing is reclaimed).
	GC bool
	// Reaper configures the collector (GC): the retention policy, the
	// delete budget per tick, the delete queue and the tick period.
	Reaper core.ReaperConfig

	// ReadCache enables the hot-path read tier's shared bounded cache
	// (Router.ReadCache): the router serves repeated chunk byte reads
	// from it and invalidates an entry on every placement change. Off by
	// default.
	ReadCache bool
	// Cache bounds the read cache (ReadCache).
	Cache provider.ReadCacheConfig
	// LocalDomain, when set, declares the failure domain this
	// deployment's reads originate from: the router prefers
	// same-domain replicas and counts cross-domain bytes avoided
	// (Router.ReadLocality). Works with or without ReadCache.
	LocalDomain string

	// StoreURL selects the chunk store backend of every data provider
	// via the chunk backend factory: "mem://" (the default when empty),
	// "disk:///path" (one per-provider subdirectory under path),
	// "null://" (discard payloads, bench-only). Fault injection is
	// FaultInjection's alone, and composes with any backend — the
	// factory's store is wrapped in a chunk.FaultStore and the handles
	// exposed as Versioning.Faults.
	StoreURL string

	DataModel iosim.CostModel // per provider / OST
	MetaModel iosim.CostModel // per metadata shard
	CtrlModel iosim.CostModel // version manager, lock manager, detector RPCs

	// VMBatch configures the version manager's group-commit pipeline
	// (versioning deployments only). The zero value disables batching:
	// one control round trip per request, the pre-batching behavior.
	VMBatch vmanager.BatchConfig
	// VMShards partitions the control plane: blobs are spread across
	// that many independent version-manager shards by a stable hash of
	// the blob ID, each shard its own control server (own lock, own
	// exclusive meter, own group-commit combiners). 0 or 1 keeps the
	// single manager of earlier PRs.
	VMShards int
}

// Default returns the unmetered environment used by tests.
func Default() Env {
	return Env{Providers: 8, MetaShards: 8, ChunkSize: 64 << 10}
}

// Metered returns the experiment environment: every storage server
// charges a per-op latency and sustains finite bandwidth, matching the
// relative magnitudes of a cluster testbed (100µs/op and 1 GiB/s per
// data server, 20µs per metadata/control RPC).
func Metered() Env {
	e := Default()
	e.DataModel = iosim.DefaultNetwork()
	e.MetaModel = iosim.CostModel{PerOp: 20 * time.Microsecond, BytesPerSec: 4 << 30}
	e.CtrlModel = iosim.CostModel{PerOp: 50 * time.Microsecond, BytesPerSec: 16 << 30}
	return e
}

// Validate checks the environment.
func (e Env) Validate() error {
	if e.Providers < 1 {
		return fmt.Errorf("cluster: need at least one provider, got %d", e.Providers)
	}
	if e.MetaShards < 1 {
		return fmt.Errorf("cluster: need at least one metadata shard, got %d", e.MetaShards)
	}
	if e.ChunkSize < 1 {
		return fmt.Errorf("cluster: chunk size %d must be positive", e.ChunkSize)
	}
	if e.Replicas > e.Providers {
		return fmt.Errorf("cluster: %d replicas exceed %d providers", e.Replicas, e.Providers)
	}
	if e.Domains < 0 {
		return fmt.Errorf("cluster: negative domain count %d", e.Domains)
	}
	if e.Domains > e.Providers {
		return fmt.Errorf("cluster: %d domains exceed %d providers", e.Domains, e.Providers)
	}
	if k, m, err := provider.ParseCoding(e.Coding); err != nil {
		return fmt.Errorf("cluster: %w", err)
	} else if e.Coding != "" {
		if e.Replicas > 1 {
			return fmt.Errorf("cluster: coding %q is mutually exclusive with %d replicas", e.Coding, e.Replicas)
		}
		if k+m > e.Providers {
			return fmt.Errorf("cluster: coding %q needs %d providers, have %d", e.Coding, k+m, e.Providers)
		}
		if e.WriteQuorum != 0 && (e.WriteQuorum < k || e.WriteQuorum > k+m) {
			return fmt.Errorf("cluster: write quorum %d outside [%d, %d] for coding %q", e.WriteQuorum, k, k+m, e.Coding)
		}
	} else if r := max(e.Replicas, 1); e.WriteQuorum > r {
		return fmt.Errorf("cluster: write quorum %d exceeds %d replicas", e.WriteQuorum, r)
	}
	if e.VMShards < 0 {
		return fmt.Errorf("cluster: negative vmanager shard count %d", e.VMShards)
	}
	if e.StoreURL != "" {
		if err := chunk.ValidStoreURL(e.StoreURL); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

// NewVM builds the version-manager role: the sharded manager with its
// group-commit batching, reporting into reg.
func NewVM(env Env, reg *metrics.Registry) *vmanager.Sharded {
	vm := vmanager.NewSharded(env.CtrlModel, max(env.VMShards, 1))
	vm.SetBatching(env.VMBatch)
	vm.SetMetrics(reg)
	return vm
}

// NewMeta builds the metadata role.
func NewMeta(env Env) *metadata.Store {
	return metadata.NewStore(env.MetaShards, env.MetaModel)
}

// Data is the data role: the provider pool behind its router and, with
// SelfHeal, the health monitor and healer wired into it. Health and
// Healer are nil without SelfHeal; Faults is nil without FaultInjection.
type Data struct {
	Providers *provider.Manager
	Router    *provider.Router
	Health    *provider.HealthMonitor
	Healer    *core.Healer
	Faults    []*chunk.FaultStore
}

// NewData builds the data role of a validated environment, every
// component reporting into reg. The healer's loop is not started: the
// caller runs Healer.Run, or ticks it by hand.
func NewData(env Env, reg *metrics.Registry) (*Data, error) {
	storeURL := cmp.Or(env.StoreURL, "mem://")
	pool, faults, err := provider.NewURLPoolInDomains(storeURL, env.Providers, env.Domains, env.DataModel, env.FaultInjection)
	if err != nil {
		return nil, fmt.Errorf("cluster: open store %q: %w", storeURL, err)
	}
	router := provider.NewRouter(pool)
	router.SetMetrics(reg)
	router.SetReplicas(env.Replicas)
	if env.Coding != "" {
		k, m, _ := provider.ParseCoding(env.Coding) // Validate vetted it
		if err := router.SetCoding(k, m); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	router.SetWriteQuorum(env.WriteQuorum)
	if env.LocalDomain != "" {
		router.SetReadLocality(env.LocalDomain, true)
	}
	if env.ReadCache {
		cache := provider.NewReadCache(env.Cache)
		cache.SetMetrics(reg)
		router.SetReadCache(cache)
	}
	d := &Data{Providers: pool, Router: router, Faults: faults}
	if env.SelfHeal {
		d.Health = provider.NewHealthMonitor(pool, env.Health)
		router.SetHealthMonitor(d.Health)
		d.Healer = core.NewHealer(router, d.Health, env.Healer)
		d.Healer.SetMetrics(reg)
		router.SetDegradedHandler(d.Healer.EnqueueRepair)
	}
	return d, nil
}

// NewReaper wires the garbage collector over a node's three roles: it
// deletes through the router and finds blobs in the version manager's
// catalog. Its loop is not started: the caller runs Run, or calls Pass.
func NewReaper(env Env, reg *metrics.Registry, vm *vmanager.Sharded, meta *metadata.Store, router *provider.Router) *core.Reaper {
	r := core.NewReaper(router, env.Reaper)
	r.SetMetrics(reg)
	r.SetCatalog(blob.Services{VM: vm, Meta: meta, Data: router}, vm)
	return r
}

// Versioning is a full in-process deployment of the paper's storage
// service: every role of one node. Reaper is non-nil only when Env.GC
// is set.
type Versioning struct {
	VM   *vmanager.Sharded
	Meta *metadata.Store
	*Data
	Reaper *core.Reaper
	// Metrics is the deployment-wide registry every component reports
	// into: vmanager ticket/commit/publish, chunk put/get, cache,
	// repair and reap counters plus their latency histograms. Always
	// non-nil.
	Metrics *metrics.Registry
	env     Env
}

// NewVersioning boots the service.
func NewVersioning(env Env) (*Versioning, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	data, err := NewData(env, reg)
	if err != nil {
		return nil, err
	}
	v := &Versioning{VM: NewVM(env, reg), Meta: NewMeta(env), Data: data, Metrics: reg, env: env}
	if env.GC {
		v.Reaper = NewReaper(env, reg, v.VM, v.Meta, v.Router)
	}
	return v, nil
}

// Services returns the client-facing service bundle.
func (v *Versioning) Services() blob.Services {
	return blob.Services{VM: v.VM, Meta: v.Meta, Data: v.Router}
}

// Backend creates a versioning backend over a new blob sized to cover
// span bytes (rounded up to a power-of-two multiple of the chunk size).
// It registers nothing: the healer scrubs the router's placement map,
// and the reaper finds the blob in the version manager's catalog at
// its next pass start.
func (v *Versioning) Backend(blobID uint64, span int64) (*core.VersioningBackend, error) {
	geo := segtree.Geometry{Capacity: CapacityFor(span, v.env.ChunkSize), Page: v.env.ChunkSize}
	be, err := core.NewVersioning(v.Services(), blobID, geo)
	if err != nil {
		return nil, err
	}
	be.SetMetrics(v.Metrics)
	return be, nil
}

// Lustre is a deployment of the locking baseline.
type Lustre struct {
	FS  *lockfs.FS
	env Env
}

// NewLustre boots the locking file system with the same storage
// resources as the versioning deployment would get.
func NewLustre(env Env) (*Lustre, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	fs, err := lockfs.New(lockfs.Config{
		OSTs:       env.Providers,
		StripeSize: env.ChunkSize,
		OSTModel:   env.DataModel,
		LockModel:  env.CtrlModel,
	})
	if err != nil {
		return nil, err
	}
	return &Lustre{FS: fs, env: env}, nil
}

// File creates the shared file.
func (l *Lustre) File(name string) (*lockfs.File, error) {
	return l.FS.Create(name)
}

// CapacityFor rounds span up to the smallest power-of-two multiple of
// page that covers it.
func CapacityFor(span, page int64) int64 {
	if span < page {
		span = page
	}
	pages := (span + page - 1) / page
	p := int64(1)
	for p < pages {
		p <<= 1
	}
	return p * page
}
