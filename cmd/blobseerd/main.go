// Command blobseerd runs one storage-service node over TCP. A node can
// host any subset of the three roles of the versioning service:
//
//	blobseerd -listen :4000 -roles vm,meta,data
//	blobseerd -listen :4001 -roles data -providers 16 -replicas 3
//	blobseerd -listen :4002 -roles vm -batch 32 -batch-delay 200us
//	blobseerd -listen :4008 -roles vm -vm-shards 4 -batch 32
//	blobseerd -listen :4003 -roles data -replicas 3 -self-heal -scrub-interval 50ms
//	blobseerd -listen :4004 -roles vm,meta,data -replicas 2 -retain 8 -gc-rate 8
//	blobseerd -listen :4005 -roles data -providers 16 -replicas 3 -domains 4
//	blobseerd -listen :4006 -roles data -replicas 2 -domains rackA,rackB,rackC
//	blobseerd -listen :4007 -roles data -replicas 2 -domains 4 -domain zone0 -read-cache 67108864
//	blobseerd -listen :4009 -roles data -providers 16 -store disk:///var/blobseer/chunks
//	blobseerd -listen :4010 -roles data -providers 8 -coding rs-4+2 -domains 6
//
// Clients (cmd/bsctl, examples/distributed) connect with the endpoints
// of the three roles, which may be the same node or different nodes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/vmanager"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:4000", "listen address")
		rolesFlag  = flag.String("roles", "vm,meta,data", "roles to host: vm, meta, data")
		providers  = flag.Int("providers", 8, "data providers behind this node (data role)")
		replicas   = flag.Int("replicas", 1, "copies stored per chunk, on distinct providers (data role)")
		coding     = flag.String("coding", "", "erasure-coded placement instead of replication: rs-k+m (e.g. rs-4+2) stripes each chunk into k data + m parity fragments on k+m distinct providers; mutually exclusive with -replicas > 1 (data role)")
		quorum     = flag.Int("quorum", 0, "copies (or coded fragments) that must land for a write to commit (0 = replicas-1 min 1, coded k+m-1 min k)")
		domains    = flag.String("domains", "", "failure domains to rack the providers into: a count (\"4\" -> zone0..zone3) or comma-separated labels; replicas then spread across distinct domains (data role)")
		storeURL   = flag.String("store", "mem://", "chunk store backend URL: mem://, disk:///path (one subdirectory per provider), or null:// (discard payloads, bench-only) (data role)")
		shards     = flag.Int("shards", 8, "metadata shards (meta role)")
		simulate   = flag.Bool("simulate", false, "charge the synthetic cost models")
		batch      = flag.Int("batch", 1, "version manager group-commit size (vm role; 1 disables)")
		batchDelay = flag.Duration("batch-delay", 200*time.Microsecond, "max time a group leader lingers for the group to fill")
		vmShards   = flag.Int("vm-shards", 1, "version manager shards: blobs spread across this many independent control servers by stable blob-ID hash (vm role; 1 = unsharded)")

		selfHeal      = flag.Bool("self-heal", false, "run the autonomous repair loop: error-driven failure detection, background scrubber, read-repair (data role)")
		failThreshold = flag.Int("fail-threshold", 3, "consecutive store errors before a provider is marked down (self-heal)")
		probation     = flag.Duration("probation", 2*time.Second, "down time before health probes may revive a provider (self-heal)")
		scrubInterval = flag.Duration("scrub-interval", 100*time.Millisecond, "background healer tick period (self-heal)")
		scrubRate     = flag.Int("scrub-rate", 64, "chunk replica verifications per healer tick (self-heal)")
		repairRate    = flag.Int("repair-rate", 4, "re-replications per healer tick (self-heal)")
		repairQueue   = flag.Int("repair-queue", 256, "bounded repair queue depth (self-heal)")
		scrubOrder    = flag.String("scrub-order", "oldest", "scrub walk order over versions: oldest (default) or newest first (self-heal)")

		gcEnable   = flag.Bool("gc", false, "run the version-lifecycle garbage collector (requires vm,meta,data roles on this node)")
		retain     = flag.Int("retain", 0, "automatic retention policy: keep the newest N versions of every blob, drop the rest (implies -gc; 0 = manual drops only)")
		gcRate     = flag.Int("gc-rate", 4, "chunk deletions per reaper tick (gc)")
		gcInterval = flag.Duration("gc-interval", 200*time.Millisecond, "background reaper tick period (gc)")
		gcQueue    = flag.Int("gc-queue", 256, "bounded delete queue depth (gc)")

		localDomain = flag.String("domain", "", "failure domain this node's readers sit in: same-domain replicas are tried first and cross-domain bytes avoided are counted (data role)")
		readCache   = flag.Int64("read-cache", 0, "bounded read cache size in bytes, invalidated on placement changes. Every network client reads chunks by framed stream, which bypasses the cache, so in a daemon it holds chunk data for no remote reader — replica-set hints for the reaper only (data role; 0 = off)")
		cacheShards = flag.Int("cache-shards", 0, "read cache shard count, rounded up to a power of two (read-cache; 0 = default 16)")
	)
	flag.Parse()
	if *retain > 0 {
		*gcEnable = true
	}

	dataModel, metaModel, ctrlModel := iosim.CostModel{}, iosim.CostModel{}, iosim.CostModel{}
	if *simulate {
		dataModel = iosim.DefaultNetwork()
		metaModel = iosim.DefaultMetadata()
		ctrlModel = iosim.DefaultMetadata()
	}

	// One registry spans every role this process hosts; the Node RPC
	// service exposes it (bsctl metrics) and the server codec counts
	// inbound RPCs into it.
	reg := metrics.NewRegistry()

	var roles remote.Roles
	roles.Metrics = reg
	for _, role := range strings.Split(*rolesFlag, ",") {
		switch strings.TrimSpace(role) {
		case "vm":
			if *vmShards < 1 {
				fmt.Fprintf(os.Stderr, "-vm-shards %d must be at least 1\n", *vmShards)
				os.Exit(2)
			}
			vm := vmanager.NewSharded(ctrlModel, *vmShards)
			vm.SetBatching(vmanager.BatchConfig{MaxBatch: *batch, MaxDelay: *batchDelay})
			vm.SetMetrics(reg)
			roles.VM = vm
		case "meta":
			roles.Meta = metadata.NewStore(*shards, metaModel)
		case "data":
			// The shape checks (replicas vs providers, coding vs replicas
			// and pool size, quorum range in both modes, the store URL)
			// are cluster.Env's — one copy, one set of refusals.
			shape := cluster.Default()
			shape.Providers = *providers
			shape.Replicas = *replicas
			shape.Coding = *coding
			shape.WriteQuorum = *quorum
			shape.StoreURL = *storeURL
			if err := shape.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			// Validate parsed the spec already; it cannot fail here.
			codeK, codeM, _ := provider.ParseCoding(*coding)
			labels, err := domainLabels(*domains, *providers)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			pool, _, err := provider.NewURLPoolInDomains(*storeURL, *providers, 0, dataModel, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			for i, label := range labels {
				if label == "" {
					continue // flat default; SetDomain refuses untagging
				}
				if err := pool.SetDomain(provider.ID(i), label); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
			}
			roles.Data = provider.NewRouter(pool)
			roles.Data.SetMetrics(reg)
			roles.Data.SetReplicas(*replicas)
			if *coding != "" {
				if err := roles.Data.SetCoding(codeK, codeM); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
			}
			roles.Data.SetWriteQuorum(*quorum)
			if *localDomain != "" {
				roles.Data.SetLocalDomain(*localDomain)
			}
			if *readCache > 0 {
				cache := provider.NewReadCache(provider.ReadCacheConfig{
					Shards:   *cacheShards,
					MaxBytes: *readCache,
				})
				cache.SetMetrics(reg)
				roles.Data.SetReadCache(cache)
			}
			if *selfHeal {
				order := core.OldestFirst
				switch *scrubOrder {
				case "oldest":
				case "newest":
					order = core.NewestFirst
				default:
					fmt.Fprintf(os.Stderr, "unknown -scrub-order %q (want oldest or newest)\n", *scrubOrder)
					os.Exit(2)
				}
				roles.Health = provider.NewHealthMonitor(pool, provider.HealthConfig{
					Threshold: *failThreshold,
					Probation: *probation,
				})
				roles.Data.SetHealthMonitor(roles.Health)
				// A data-only daemon holds no blob handles; the healer
				// scrubs the router's placement map directly.
				roles.Healer = core.NewHealer(roles.Data, roles.Health, core.HealerConfig{
					ScrubChunksPerTick: *scrubRate,
					RepairsPerTick:     *repairRate,
					QueueDepth:         *repairQueue,
					Interval:           *scrubInterval,
					Order:              order,
				})
				roles.Healer.SetMetrics(reg)
				roles.Data.SetDegradedHandler(roles.Healer.EnqueueRepair)
			}
		case "":
		default:
			fmt.Fprintf(os.Stderr, "unknown role %q (want vm, meta, data)\n", role)
			os.Exit(2)
		}
	}

	if *gcEnable {
		// The reaper walks blob metadata and talks to the version
		// manager, so it needs every role in-process.
		if roles.VM == nil || roles.Meta == nil || roles.Data == nil {
			fmt.Fprintln(os.Stderr, "-gc/-retain require the vm, meta and data roles on this node")
			os.Exit(2)
		}
		roles.Reaper = core.NewReaper(roles.Data, core.ReaperConfig{
			RetainLast:     *retain,
			DeletesPerTick: *gcRate,
			QueueDepth:     *gcQueue,
			Interval:       *gcInterval,
		})
		// Blobs are created by clients over RPC; the reaper discovers
		// them from the version manager at each pass start.
		roles.Reaper.SetMetrics(reg)
		roles.Reaper.SetCatalog(blob.Services{VM: roles.VM, Meta: roles.Meta, Data: roles.Data}, roles.VM)
		if c := roles.Data.ReadCache(); c != nil {
			// The reaper's hint walk then repairs hint rot: stale
			// metadata hints get the current placement rewritten into
			// the cache instead of merely being counted.
			roles.Reaper.SetReadCache(c)
		}
	}

	node, err := remote.Listen(*listen, roles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer node.Close()
	if roles.Healer != nil {
		roles.Healer.Run()
		defer roles.Healer.Stop()
		// Print what runs, not what was typed: out-of-range flags fall
		// back to defaults inside the constructors.
		hc, mc := roles.Healer.Config(), roles.Health.Config()
		fmt.Printf("self-heal: threshold %d, probation %s, scrub %d chunks (%s first) / repair %d chunks per %s tick\n",
			mc.Threshold, mc.Probation, hc.ScrubChunksPerTick, hc.Order, hc.RepairsPerTick, hc.Interval)
	}
	if roles.Reaper != nil {
		roles.Reaper.Run()
		defer roles.Reaper.Stop()
		rc := roles.Reaper.Config()
		fmt.Printf("gc: retain %d, %d deletes per %s tick, queue %d\n",
			rc.RetainLast, rc.DeletesPerTick, rc.Interval, rc.QueueDepth)
	}
	if roles.Data != nil && *domains != "" {
		dm := roles.Data.DomainMap()
		if len(dm) > 1 {
			var parts []string
			for label, ids := range dm {
				parts = append(parts, fmt.Sprintf("%s=%d", label, len(ids)))
			}
			sort.Strings(parts)
			fmt.Printf("failure domains: %s (replicas spread across distinct domains)\n", strings.Join(parts, " "))
		} else {
			// One domain is a flat pool: claiming spread here would
			// promise a correlated-loss guarantee that does not exist.
			fmt.Println("failure domains: 1 (flat placement — spreading needs at least 2 domains)")
		}
	}
	if roles.Data != nil && *coding != "" {
		k, m, _ := roles.Data.Coding()
		fmt.Printf("erasure coding: %s (%d data + %d parity fragments per chunk, any %d losses survivable, %.2fx storage)\n",
			*coding, k, m, m, float64(k+m)/float64(k))
	}
	if roles.Data != nil && *storeURL != "mem://" {
		fmt.Printf("chunk store: %s (one backend per provider)\n", *storeURL)
	}
	if roles.Data != nil && (*localDomain != "" || *readCache > 0) {
		parts := []string{}
		if *localDomain != "" {
			parts = append(parts, fmt.Sprintf("zone-local reads from %s", *localDomain))
		}
		if *readCache > 0 {
			parts = append(parts, fmt.Sprintf("read cache %d bytes", *readCache))
		}
		fmt.Printf("read tier: %s\n", strings.Join(parts, ", "))
	}
	if roles.VM != nil && *vmShards > 1 {
		fmt.Printf("control plane: %d vmanager shards (stable blob-ID hash)\n", *vmShards)
	}
	fmt.Printf("blobseerd serving %s on %s\n", *rolesFlag, node.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

// domainLabels resolves the -domains flag into one failure-domain
// label per provider: a bare count carves the pool into that many
// contiguous zoneN blocks, a comma-separated list assigns the named
// domains as contiguous blocks in order, and the empty flag keeps the
// flat single-domain pool.
func domainLabels(spec string, n int) ([]string, error) {
	labels := make([]string, n)
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return labels, nil
	}
	if count, err := strconv.Atoi(spec); err == nil {
		if count < 1 || count > n {
			return nil, fmt.Errorf("-domains %d out of range (1..%d providers)", count, n)
		}
		for i := range labels {
			labels[i] = provider.DomainLabel(i, n, count)
		}
		return labels, nil
	}
	var names []string
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-domains %q contains an empty label", spec)
		}
		if seen[name] {
			// A silently collapsed domain would co-locate replicas on
			// machines that fail together while claiming spread.
			return nil, fmt.Errorf("-domains %q names %s twice", spec, name)
		}
		seen[name] = true
		names = append(names, name)
	}
	if len(names) > n {
		return nil, fmt.Errorf("-domains names %d domains for %d providers", len(names), n)
	}
	for i := range labels {
		labels[i] = names[i*len(names)/n]
	}
	return labels, nil
}
