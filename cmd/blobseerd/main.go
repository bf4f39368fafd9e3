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
//	blobseerd -listen :4007 -roles data -replicas 2 -domains 4 -domain zone0
//	blobseerd -listen :4009 -roles data -providers 16 -store disk:///var/blobseer/chunks
//	blobseerd -listen :4010 -roles data -providers 8 -coding rs-4+2 -domains 6
//
// Clients (cmd/bsctl, examples/distributed) connect with the endpoints
// of the three roles, which may be the same node or different nodes.
// The flags fill a cluster.Env, and each hosted role is built by the
// cluster constructor that cluster.NewVersioning runs for it: NewVM,
// NewMeta, NewData (with -self-heal, its health monitor and healer),
// and with -gc NewReaper over all three. A daemon's node is therefore
// the in-process deployment, served: -self-heal scrubs the data role's
// placement map, -gc finds blobs through the version manager's catalog,
// and -simulate charges cluster.Metered()'s cost models. A command line
// no node can serve exits 2; a node that fails to start exits 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/vmanager"
)

func main() {
	o, err := parse(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	n, err := boot(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer n.Close()
	n.describe(os.Stdout, o)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
}

// options is a parsed command line: where to listen, which roles to
// host, the failure domains to rack the providers into, and the
// cluster.Env every other flag fills.
type options struct {
	listen  string
	roles   string // as typed: comma-separated vm, meta, data
	hosts   map[string]bool
	domains string   // as typed
	labels  []string // per provider; "" keeps the flat default
	env     cluster.Env
}

// parse defines blobseerd's flags on fs, reads args, and refuses a
// command line that no node can serve.
func parse(fs *flag.FlagSet, args []string) (options, error) {
	o := options{env: cluster.Default()}
	e := &o.env
	fs.StringVar(&o.listen, "listen", "127.0.0.1:4000", "listen address")
	fs.StringVar(&o.roles, "roles", "vm,meta,data", "roles to host: vm, meta, data")
	fs.IntVar(&e.Providers, "providers", 8, "data providers behind this node (data role)")
	fs.IntVar(&e.Replicas, "replicas", 1, "copies stored per chunk, on distinct providers (data role)")
	fs.StringVar(&e.Coding, "coding", "", "erasure-coded placement instead of replication: rs-k+m (e.g. rs-4+2) stripes each chunk into k data + m parity fragments on k+m distinct providers; mutually exclusive with -replicas > 1 (data role)")
	fs.IntVar(&e.WriteQuorum, "quorum", 0, "copies (or coded fragments) that must land for a write to commit (0 = replicas-1 min 1, coded k+m-1 min k)")
	fs.StringVar(&o.domains, "domains", "", "failure domains to rack the providers into: a count (\"4\" -> zone0..zone3) or comma-separated labels; replicas then spread across distinct domains (data role)")
	fs.StringVar(&e.StoreURL, "store", "mem://", "chunk store backend URL: mem://, disk:///path (one subdirectory per provider), or null:// (discard payloads, bench-only) (data role)")
	fs.IntVar(&e.MetaShards, "shards", 8, "metadata shards (meta role)")
	simulate := fs.Bool("simulate", false, "charge the synthetic cost models")
	fs.IntVar(&e.VMBatch.MaxBatch, "batch", 1, "version manager group-commit size (vm role; 1 disables)")
	fs.DurationVar(&e.VMBatch.MaxDelay, "batch-delay", 200*time.Microsecond, "max time a group leader lingers for the group to fill")
	fs.IntVar(&e.VMShards, "vm-shards", 1, "version manager shards: blobs spread across this many independent control servers by stable blob-ID hash (vm role; 1 = unsharded)")

	fs.BoolVar(&e.SelfHeal, "self-heal", false, "run the autonomous repair loop: error-driven failure detection, background scrubber, read-repair (data role)")
	fs.IntVar(&e.Health.Threshold, "fail-threshold", 3, "consecutive store errors before a provider is marked down (self-heal)")
	fs.DurationVar(&e.Health.Probation, "probation", 2*time.Second, "down time before health probes may revive a provider (self-heal)")
	fs.DurationVar(&e.Healer.Interval, "scrub-interval", 100*time.Millisecond, "background healer tick period (self-heal)")
	fs.IntVar(&e.Healer.ScrubChunksPerTick, "scrub-rate", 64, "chunk replica verifications per healer tick (self-heal)")
	fs.IntVar(&e.Healer.RepairsPerTick, "repair-rate", 4, "re-replications per healer tick (self-heal)")
	fs.IntVar(&e.Healer.QueueDepth, "repair-queue", 256, "bounded repair queue depth (self-heal)")

	fs.BoolVar(&e.GC, "gc", false, "run the version-lifecycle garbage collector (requires vm,meta,data roles on this node)")
	fs.IntVar(&e.Reaper.RetainLast, "retain", 0, "automatic retention policy: keep the newest N versions of every blob, drop the rest (implies -gc; 0 = manual drops only)")
	fs.IntVar(&e.Reaper.DeletesPerTick, "gc-rate", 4, "chunk deletions per reaper tick (gc)")
	fs.DurationVar(&e.Reaper.Interval, "gc-interval", 200*time.Millisecond, "background reaper tick period (gc)")
	fs.IntVar(&e.Reaper.QueueDepth, "gc-queue", 256, "bounded delete queue depth (gc)")

	fs.StringVar(&e.LocalDomain, "domain", "", "failure domain this node's readers sit in: same-domain replicas are tried first and cross-domain bytes avoided are counted (data role)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *simulate {
		m := cluster.Metered()
		e.DataModel, e.MetaModel, e.CtrlModel = m.DataModel, m.MetaModel, m.CtrlModel
	}
	if e.Reaper.RetainLast > 0 {
		e.GC = true
	}

	o.hosts = map[string]bool{}
	for _, role := range strings.Split(o.roles, ",") {
		switch r := strings.TrimSpace(role); r {
		case "vm", "meta", "data":
			o.hosts[r] = true
		case "":
		default:
			return o, fmt.Errorf("unknown role %q (want vm, meta, data)", role)
		}
	}
	if e.VMShards < 1 {
		return o, fmt.Errorf("-vm-shards %d must be at least 1", e.VMShards)
	}
	// The shape checks (replicas vs providers, coding vs replicas and
	// pool size, quorum range in both modes, the store URL) are
	// cluster.Env's: one copy, one set of refusals.
	if err := e.Validate(); err != nil {
		return o, err
	}
	var err error
	if o.labels, err = domainLabels(o.domains, e.Providers); err != nil {
		return o, err
	}
	// The reaper walks blob metadata and talks to the version manager,
	// so it needs every role in-process.
	if e.GC && !(o.hosts["vm"] && o.hosts["meta"] && o.hosts["data"]) {
		return o, fmt.Errorf("-gc/-retain require the vm, meta and data roles on this node")
	}
	return o, nil
}

// node is a booted blobseerd: its roles served on one port, their
// background loops running.
type node struct {
	*remote.Node
	roles remote.Roles
}

// boot builds the roles o hosts through the cluster constructors,
// serves them on o.listen and starts their background loops. One
// registry spans every role: the node serves it at GET /metrics (bsctl
// metrics) and counts every version-manager and operator call into it.
func boot(o options) (*node, error) {
	reg := metrics.NewRegistry()
	roles := remote.Roles{Metrics: reg}
	var vm *vmanager.Sharded
	if o.hosts["vm"] {
		vm = cluster.NewVM(o.env, reg)
		roles.VM = vm
	}
	if o.hosts["meta"] {
		roles.Meta = cluster.NewMeta(o.env)
	}
	if o.hosts["data"] {
		data, err := cluster.NewData(o.env, reg)
		if err != nil {
			return nil, err
		}
		for i, label := range o.labels {
			if label == "" {
				continue // flat default; SetDomain refuses untagging
			}
			if err := data.Providers.SetDomain(provider.ID(i), label); err != nil {
				return nil, err
			}
		}
		roles.Data, roles.Health, roles.Healer = data.Router, data.Health, data.Healer
	}
	if o.env.GC {
		roles.Reaper = cluster.NewReaper(o.env, reg, vm, roles.Meta, roles.Data)
	}
	n, err := remote.Listen(o.listen, roles)
	if err != nil {
		return nil, err
	}
	if roles.Healer != nil {
		roles.Healer.Run()
	}
	if roles.Reaper != nil {
		roles.Reaper.Run()
	}
	return &node{Node: n, roles: roles}, nil
}

// Close stops the background loops, then the node.
func (n *node) Close() error {
	if n.roles.Reaper != nil {
		n.roles.Reaper.Stop()
	}
	if n.roles.Healer != nil {
		n.roles.Healer.Stop()
	}
	return n.Node.Close()
}

// describe prints what the node runs. It prints what runs, not what was
// typed: out-of-range flags fall back to defaults inside the
// constructors.
func (n *node) describe(w io.Writer, o options) {
	r := n.roles
	if r.Healer != nil {
		hc, mc := r.Healer.Config(), r.Health.Config()
		fmt.Fprintf(w, "self-heal: threshold %d, probation %s, scrub %d chunks / repair %d chunks per %s tick\n",
			mc.Threshold, mc.Probation, hc.ScrubChunksPerTick, hc.RepairsPerTick, hc.Interval)
	}
	if r.Reaper != nil {
		rc := r.Reaper.Config()
		fmt.Fprintf(w, "gc: retain %d, %d deletes per %s tick, queue %d\n",
			rc.RetainLast, rc.DeletesPerTick, rc.Interval, rc.QueueDepth)
	}
	if r.Data != nil && o.domains != "" {
		dm := r.Data.DomainMap()
		if len(dm) > 1 {
			var parts []string
			for label, ids := range dm {
				parts = append(parts, fmt.Sprintf("%s=%d", label, len(ids)))
			}
			sort.Strings(parts)
			fmt.Fprintf(w, "failure domains: %s (replicas spread across distinct domains)\n", strings.Join(parts, " "))
		} else {
			// One domain is a flat pool: claiming spread here would
			// promise a correlated-loss guarantee that does not exist.
			fmt.Fprintln(w, "failure domains: 1 (flat placement — spreading needs at least 2 domains)")
		}
	}
	if r.Data != nil && o.env.Coding != "" {
		k, m, _ := r.Data.Coding()
		fmt.Fprintf(w, "erasure coding: %s (%d data + %d parity fragments per chunk, any %d losses survivable, %.2fx storage)\n",
			o.env.Coding, k, m, m, float64(k+m)/float64(k))
	}
	if r.Data != nil && o.env.StoreURL != "mem://" {
		fmt.Fprintf(w, "chunk store: %s (one backend per provider)\n", o.env.StoreURL)
	}
	if r.Data != nil && o.env.LocalDomain != "" {
		fmt.Fprintf(w, "read tier: zone-local reads from %s\n", o.env.LocalDomain)
	}
	if r.VM != nil && o.env.VMShards > 1 {
		fmt.Fprintf(w, "control plane: %d vmanager shards (stable blob-ID hash)\n", o.env.VMShards)
	}
	fmt.Fprintf(w, "blobseerd serving %s on %s\n", o.roles, n.Addr())
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
