// Package experiments is the experiment table: which scenario cells
// make up each numbered experiment, under which name, in which order,
// and which columns of the scenario's result its table shows. The
// scenarios themselves are internal/bench's Run functions; every
// experiment runs on the metered cost model (cluster.Metered).
// cmd/benchall runs the table; the root bench_test.go reads the same
// E1–E7 matrices for its testing.B benchmarks, so a cell is typed once.
//
// There is no E15 and no E17: E15 was never assigned, E17 went with the
// gob payload transport it measured.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// Experiment is one entry of the table.
type Experiment struct {
	// Name is the experiment's number, "E9": what -only selects.
	Name string
	// Run measures the experiment's cells — the smaller matrix when
	// quick — and renders its tables to w.
	Run func(w io.Writer, quick bool) error
}

// All is the table, in the order a full run takes.
var All = []Experiment{
	{"E1", E1.run},
	{"E2", runE2},
	{"E3", E3.run},
	{"E4", E4.run},
	{"E5", E5.run},
	{"E6", runE6},
	{"E7", runE7},
	{"E8", runE8},
	{"E9", runE9},
	{"E10", runE10},
	{"E11", runE11},
	{"E12", runE12},
	{"E13", runE13},
	{"E14", runE14},
	{"E16", runE16},
	{"E18", runE18},
}

// Headline is the experiment -headline runs: the paper's claim.
const Headline = "E6"

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names lists the experiments' names in table order.
func Names() []string {
	names := make([]string, len(All))
	for i, e := range All {
		names[i] = e.Name
	}
	return names
}

func render(w io.Writer, tbl *bench.Table) error {
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }

// pick returns the quick run's value when quick, else the full run's.
func pick[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// paperOverlap is the paper's workload cell: every client writes 32
// non-contiguous 64 KiB regions, three quarters of each shared with its
// neighbour.
func paperOverlap(clients int) workload.OverlapSpec {
	return workload.OverlapSpec{Clients: clients, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
}

// measured is how every overlap cell is timed: two calls per client
// after one untimed warm-up pass.
var measured = bench.OverlapOptions{Iterations: 2, Warmup: 1}

// OverlapCell is one (environment, workload) point of an overlap sweep.
type OverlapCell struct {
	Value string // the swept parameter's value at this cell
	Env   cluster.Env
	Spec  workload.OverlapSpec
	Opts  bench.OverlapOptions
}

// OverlapSweep is an experiment that sweeps one parameter of the
// atomic-overlapped-write scenario (bench.RunOverlap) across a set of
// systems: E1 and E3–E6.
type OverlapSweep struct {
	Title string
	// Param names the swept parameter. When it is "clients" the tables
	// need no column for it: the standard columns already have one.
	Param   string
	Systems []bench.SystemKind
	Cells   func(quick bool) []OverlapCell
}

func (s OverlapSweep) run(w io.Writer, quick bool) error {
	header := bench.StandardHeader()
	if s.Param != "clients" {
		header = append([]string{s.Param}, header...)
	}
	tbl := bench.NewTable(s.Title, header...)
	for _, cell := range s.Cells(quick) {
		for _, kind := range s.Systems {
			res, err := bench.RunOverlap(kind, cell.Env, cell.Spec, cell.Opts)
			if err != nil {
				return err
			}
			if s.Param == "clients" {
				tbl.AddResult(res)
			} else {
				tbl.AddResult(res, cell.Value)
			}
		}
	}
	return render(w, tbl)
}

// sweep builds the cells of a sweep over the metered environment.
func sweep[T any](values []T, format string, cell func(T, *OverlapCell)) []OverlapCell {
	cells := make([]OverlapCell, len(values))
	for i, v := range values {
		cells[i] = OverlapCell{Value: fmt.Sprintf(format, v), Env: cluster.Metered(), Opts: measured}
		cell(v, &cells[i])
	}
	return cells
}

// E1: aggregated throughput vs number of clients.
var E1 = OverlapSweep{
	Title:   "E1: atomic overlapped non-contiguous writes, throughput vs clients (32 regions x 64 KiB, overlap 0.75)",
	Param:   "clients",
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding, bench.LockWholeFile, bench.LockConflictDetect},
	Cells: func(quick bool) []OverlapCell {
		return sweep(pick(quick, []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 4, 16}), "%d", func(n int, c *OverlapCell) {
			c.Spec = paperOverlap(n)
			c.Opts.Iterations = pick(quick, 2, 1)
		})
	},
}

// E3: sensitivity to the number of non-contiguous regions per call.
var E3 = OverlapSweep{
	Title:   "E3: throughput vs regions per call (16 clients, 16 KiB regions, overlap 0.75)",
	Param:   "regions",
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding, bench.LockList, bench.LockDataSieve},
	Cells: func(quick bool) []OverlapCell {
		return sweep(pick(quick, []int{1, 4, 16, 64, 256}, []int{4, 64}), "%d", func(r int, c *OverlapCell) {
			c.Spec = workload.OverlapSpec{Clients: 16, Regions: r, RegionSize: 16 << 10, OverlapFraction: 0.75}
		})
	},
}

// E4: overlap-fraction sweep (where conflict detection wins and loses).
var E4 = OverlapSweep{
	Title:   "E4: throughput vs overlap fraction (16 clients, 32 regions x 64 KiB)",
	Param:   "overlap",
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding, bench.LockConflictDetect},
	Cells: func(quick bool) []OverlapCell {
		return sweep(pick(quick, []float64{0, 0.25, 0.5, 0.75, 1}, []float64{0, 1}), "%.2f", func(f float64, c *OverlapCell) {
			c.Spec = paperOverlap(16)
			c.Spec.OverlapFraction = f
		})
	},
}

// E5: striping sweep (providers/OSTs).
var E5 = OverlapSweep{
	Title:   "E5: throughput vs striping width (16 clients, 32 regions x 64 KiB, overlap 0.75)",
	Param:   "providers",
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding},
	Cells: func(quick bool) []OverlapCell {
		return sweep(pick(quick, []int{1, 2, 4, 8, 16}, []int{2, 8}), "%d", func(p int, c *OverlapCell) {
			c.Env.Providers = p
			c.Spec = paperOverlap(16)
		})
	},
}

// E6: the headline claim — aggregated-throughput ratio range of
// versioning over the Lustre-style locking baseline.
var E6 = OverlapSweep{
	Title:   "E6: headline ratio versioning / lock-bounding (paper claims 3.5x-10x)",
	Param:   "clients",
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding},
	Cells: func(quick bool) []OverlapCell {
		return sweep(pick(quick, []int{8, 16, 32, 64}, []int{8, 16}), "%d", func(n int, c *OverlapCell) {
			c.Spec = paperOverlap(n)
		})
	},
}

func runE6(w io.Writer, quick bool) error {
	tbl := bench.NewTable(E6.Title, "clients", "versioning MB/s", "lock-bounding MB/s", "ratio")
	lo, hi := 0.0, 0.0
	for _, cell := range E6.Cells(quick) {
		var mbps [2]float64
		for i, kind := range E6.Systems {
			res, err := bench.RunOverlap(kind, cell.Env, cell.Spec, cell.Opts)
			if err != nil {
				return err
			}
			mbps[i] = res.MBps
		}
		ratio := bench.Ratio(mbps[0], mbps[1])
		if lo == 0 || ratio < lo {
			lo = ratio
		}
		hi = max(hi, ratio)
		tbl.AddRow(cell.Value, fmt.Sprintf("%.1f", mbps[0]), fmt.Sprintf("%.1f", mbps[1]), fmt.Sprintf("%.2fx", ratio))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "observed ratio band: %.2fx - %.2fx (paper: 3.5x - 10x)\n\n", lo, hi)
	return err
}

// E2 is the MPI-tile-IO matrix: a g x g grid of overlapping tiles,
// independent and collective, two dumps after one warm-up.
var E2 = struct {
	Grids   func(quick bool) []int
	Spec    func(grid int) workload.TileSpec
	Systems []bench.SystemKind
	Opts    func(collective bool) bench.TileOptions
}{
	Grids: func(quick bool) []int { return pick(quick, []int{2, 4, 6, 8}, []int{2, 4}) },
	Spec: func(g int) workload.TileSpec {
		return workload.TileSpec{TilesX: g, TilesY: g, TileX: 64, TileY: 64, ElementSize: 32, OverlapX: 16, OverlapY: 16}
	},
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding},
	Opts: func(collective bool) bench.TileOptions {
		return bench.TileOptions{Collective: collective, Iterations: 2, Warmup: 1}
	},
}

// TileMode names E2's two I/O modes.
func TileMode(collective bool) string {
	if collective {
		return "collective"
	}
	return "independent"
}

// E2: MPI-tile-IO, independent and collective.
func runE2(w io.Writer, quick bool) error {
	for _, collective := range []bool{false, true} {
		tbl := bench.NewTable(
			fmt.Sprintf("E2: MPI-tile-IO (%s I/O, 64x64 tiles of 32B elements, overlap 16)", TileMode(collective)),
			bench.StandardHeader()...)
		for _, g := range E2.Grids(quick) {
			for _, kind := range E2.Systems {
				res, err := bench.RunTile(kind, cluster.Metered(), E2.Spec(g), E2.Opts(collective))
				if err != nil {
					return err
				}
				tbl.AddResult(res)
			}
		}
		if err := render(w, tbl); err != nil {
			return err
		}
	}
	return nil
}

// E7 is the producer/consumer matrix: 8 writers x 4 calls against a
// varying number of readers scanning the full file under atomicity.
var E7 = struct {
	Readers func(quick bool) []int
	Spec    func(readers int) bench.MixedSpec
	Systems []bench.SystemKind
}{
	Readers: func(quick bool) []int { return pick(quick, []int{1, 4, 8}, []int{4}) },
	Spec: func(readers int) bench.MixedSpec {
		return bench.MixedSpec{Writers: 8, Readers: readers, WriteCalls: 4, ReadCalls: 4, Pattern: paperOverlap(0)}
	},
	Systems: []bench.SystemKind{bench.Versioning, bench.LockBounding},
}

// E7: producer/consumer concurrency — the paper's future-work claim
// that versioning avoids synchronization between simulation output and
// visualization input.
func runE7(w io.Writer, quick bool) error {
	tbl := bench.NewTable("E7: concurrent producers+consumers (8 writers x 4 calls; readers scan the full file under atomicity)",
		"system", "readers", "write MB/s", "read MB/s", "mean read lat", "max read lat")
	for _, nr := range E7.Readers(quick) {
		for _, kind := range E7.Systems {
			res, err := bench.RunMixed(kind, cluster.Metered(), E7.Spec(nr))
			if err != nil {
				return err
			}
			tbl.AddRow(res.System.String(), fmt.Sprint(nr),
				fmt.Sprintf("%.1f", res.WriteMBps), fmt.Sprintf("%.1f", res.ReadMBps),
				ms(res.MeanReadLatency), ms(res.MaxReadLatency))
		}
	}
	return render(w, tbl)
}

// smallWrites is the control-plane workload of E8 and E16: 4 regions x
// 4 KiB per call, so the per-call control round trips (ticket grant +
// publish) are the bottleneck.
func smallWrites(clients int) workload.OverlapSpec {
	return workload.OverlapSpec{Clients: clients, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.75}
}

func groupCommit(maxBatch int) vmanager.BatchConfig {
	return vmanager.BatchConfig{MaxBatch: maxBatch, MaxDelay: 50 * time.Microsecond}
}

// E8: group commit — overlapped small writes through write pipes, with
// the version manager's group-commit pipeline at increasing batch
// sizes. Small calls make the per-call control round trips the
// bottleneck; group commit amortizes them.
func runE8(w io.Writer, quick bool) error {
	iters := pick(quick, 16, 8)
	tbl := bench.NewTable("E8: group-commit write pipeline (4 regions x 4 KiB per call, overlap 0.75, pipe depth 4)",
		"clients", "batch", "MB/s", "elapsed", "speedup vs batch=1")
	for _, n := range pick(quick, []int{8, 16, 32}, []int{16}) {
		var base float64
		for _, mb := range []int{1, 8, 64} {
			res, err := bench.RunSmallWrites(cluster.Metered(), smallWrites(n), bench.SmallWriteOptions{
				Iterations: iters, Batch: groupCommit(mb), PipeDepth: 4,
			})
			if err != nil {
				return err
			}
			if mb == 1 {
				base = res.MBps
			}
			tbl.AddRow(fmt.Sprint(n), bench.BatchLabel(groupCommit(mb)),
				fmt.Sprintf("%.1f", res.MBps), fmt.Sprintf("%.3fs", res.Elapsed.Seconds()),
				fmt.Sprintf("%.2fx", bench.Ratio(res.MBps, base)))
		}
	}
	return render(w, tbl)
}

// E16: control-plane sharding — E8's overlapped-small-write pipeline
// with every client on blobs of its own, rerun at increasing vmanager
// shard counts. Partitioning blobs across shards splits the serialized
// control round trips N ways, so publish throughput should scale near
// linearly until the data path takes over. shards=1 is the control: it
// is E8's single manager.
func runE16(w io.Writer, quick bool) error {
	iters := pick(quick, 16, 8)
	// A wide data plane (providers and metadata shards already scale
	// out) keeps the bottleneck on the one path this experiment
	// varies: the control plane.
	e := cluster.Metered()
	e.Providers = 32
	e.MetaShards = 16
	// "ctrl publishes/s" is calls divided by the busiest shard's
	// metered service time — the control plane's sustainable rate in
	// the simulation's own currency. Wall time is also shown but on a
	// small host it is bound by the clients' real CPU work, not by the
	// modeled control servers this experiment varies.
	tbl := bench.NewTable("E16: control-plane sharding (16 clients x 4 own blobs, 4 regions x 4 KiB per call, overlap 0.75, pipe depth 4, 32 providers)",
		"shards", "batch", "ctrl publishes/s", "ctrl busy", "wall", "wall MB/s", "speedup vs shards=1")
	for _, mb := range []int{1, 8} {
		var base float64
		for _, shards := range []int{1, 2, 4, 8} {
			res, err := bench.RunSmallWrites(e, smallWrites(16), bench.SmallWriteOptions{
				Iterations: iters, Batch: groupCommit(mb), PipeDepth: 4, Shards: shards, BlobsPerClient: 4,
			})
			if err != nil {
				return err
			}
			pubRate := float64(res.Calls) / res.CtrlBusy.Seconds()
			if shards == 1 {
				base = pubRate
			}
			tbl.AddRow(fmt.Sprint(shards), bench.BatchLabel(groupCommit(mb)),
				fmt.Sprintf("%.0f", pubRate), ms(res.CtrlBusy),
				fmt.Sprintf("%.3fs", res.Elapsed.Seconds()), fmt.Sprintf("%.1f", res.MBps),
				fmt.Sprintf("%.2fx", bench.Ratio(pubRate, base)))
		}
	}
	return render(w, tbl)
}

// lossCell is one cell of a loss-scenario experiment: the cells that
// lead its row, and the RunLoss call that measures it.
type lossCell struct {
	lead []string
	env  cluster.Env
	spec workload.OverlapSpec
	opts bench.LossOptions
}

// lossTable runs each cell through bench.RunLoss and shows the columns
// project picks from its result. E9, E10, E12 and E18 are four such
// projections of the one scenario.
func lossTable(w io.Writer, tbl *bench.Table, cells []lossCell, project func(bench.LossResult) ([]string, error)) error {
	for _, c := range cells {
		res, err := bench.RunLoss(c.env, c.spec, c.opts)
		if err != nil {
			return err
		}
		cols, err := project(res)
		if err != nil {
			return err
		}
		tbl.AddRow(append(c.lead, cols...)...)
	}
	return render(w, tbl)
}

// ticks renders a tick count, "-" for a loop that never converged.
func ticks(n int) string {
	if n == bench.NotConverged {
		return "-"
	}
	return fmt.Sprint(n)
}

// E9: chunk replication — the write overhead of storing R copies on
// distinct providers, and what one provider dying mid-run costs: with
// R >= 2 reads fail over to surviving replicas (throughput dips, data
// survives, repair restores R); with R = 1 the degraded phase loses
// data outright.
func runE9(w io.Writer, quick bool) error {
	iters := pick(quick, 2, 1)
	var cells []lossCell
	for _, n := range pick(quick, []int{8, 16}, []int{8}) {
		for _, r := range []int{1, 2, 3} {
			cells = append(cells, lossCell{
				lead: []string{fmt.Sprint(n), fmt.Sprint(r)}, env: cluster.Metered(), spec: paperOverlap(n),
				opts: bench.LossOptions{Replicas: r, Iterations: iters, HealthyReads: 2, DegradedReads: 2},
			})
		}
	}
	tbl := bench.NewTable("E9: replication (32 regions x 64 KiB, overlap 0.75; one provider killed mid-run)",
		"clients", "R", "write MB/s", "write overhead", "read MB/s", "degraded MB/s", "repair", "repaired")
	var base float64 // the R=1 cell's write throughput, first of each client count
	return lossTable(w, tbl, cells, func(res bench.LossResult) ([]string, error) {
		if res.Mode == "R=1" {
			base = res.WriteMBps
		}
		degraded := fmt.Sprintf("%.1f", res.DegradedMBps)
		if res.DegradedErr != nil {
			degraded = "data lost"
		}
		return []string{
			fmt.Sprintf("%.1f", res.WriteMBps), fmt.Sprintf("%.2fx", bench.Ratio(base, res.WriteMBps)),
			fmt.Sprintf("%.1f", res.ReadMBps), degraded, ms(res.RepairElapsed), fmt.Sprint(res.Repair.Repaired),
		}, nil
	})
}

// E10: self-healing — after a provider's store dies (no SetDown, no
// repair command), how long until the error-driven detector notices
// and the rate-limited scrubber/repair loop restores full replication,
// with and without the read path feeding the repair queue. Ticks are
// healer control-loop iterations; time is metered wall clock.
func runE10(w io.Writer, quick bool) error {
	var cells []lossCell
	for _, n := range pick(quick, []int{8, 16}, []int{8}) {
		for _, r := range []int{2, 3} {
			cells = append(cells,
				lossCell{
					lead: []string{fmt.Sprint(n), fmt.Sprint(r), "scrub only"}, env: cluster.Metered(), spec: paperOverlap(n),
					opts: bench.LossOptions{Replicas: r, SelfHeal: true},
				},
				lossCell{
					lead: []string{fmt.Sprint(n), fmt.Sprint(r), "+read-repair"}, env: cluster.Metered(), spec: paperOverlap(n),
					opts: bench.LossOptions{Replicas: r, SelfHeal: true, DegradedReads: 1},
				})
		}
	}
	tbl := bench.NewTable("E10: self-healing (32 regions x 64 KiB, overlap 0.75; one provider store killed, zero operator action)",
		"clients", "R", "mode", "chunks", "degraded", "detect@tick", "heal ticks", "heal time", "repaired")
	return lossTable(w, tbl, cells, func(res bench.LossResult) ([]string, error) {
		return []string{
			fmt.Sprint(res.Chunks), fmt.Sprint(res.Degraded), ticks(res.DetectTicks), ticks(res.HealTicks),
			ms(res.HealElapsed), fmt.Sprint(res.Healer.Repaired),
		}, nil
	})
}

// E12: correlated loss — every provider of one failure domain dies at
// once (store level, zero operator action). Domain-spread placement
// keeps the loss to at most one copy per chunk (100% survival) and the
// healer re-replicates into the surviving domains, restoring the
// distinct-domain spread; the flat control shows the same kill losing
// the chunks whose copies happened to be racked together. Durability
// is free: both modes store exactly R copies.
func runE12(w io.Writer, quick bool) error {
	var cells []lossCell
	for _, n := range pick(quick, []int{8, 16}, []int{8}) {
		for _, r := range []int{2, 3} {
			for _, spread := range []bool{false, true} {
				mode := "flat"
				if spread {
					mode = "domain-spread"
				}
				cells = append(cells, lossCell{
					lead: []string{fmt.Sprint(n), fmt.Sprint(r), mode}, env: cluster.Metered(), spec: paperOverlap(n),
					opts: bench.LossOptions{Replicas: r, Domains: 4, Spread: spread, SelfHeal: true},
				})
			}
		}
	}
	tbl := bench.NewTable("E12: correlated domain loss (32 regions x 64 KiB, overlap 0.75; 8 providers in 4 domains, one whole domain store-killed)",
		"clients", "R", "placement", "chunks", "killed", "degraded", "lost", "survived", "detect@tick", "heal ticks", "heal time")
	return lossTable(w, tbl, cells, func(res bench.LossResult) ([]string, error) {
		healTime := "data lost"
		if res.Lost == 0 {
			healTime = ms(res.HealElapsed)
		}
		return []string{
			fmt.Sprint(res.Chunks), fmt.Sprint(res.Killed), fmt.Sprint(res.Degraded), fmt.Sprint(res.Lost),
			fmt.Sprintf("%.1f%%", res.SurvivedPct), ticks(res.DetectTicks), ticks(res.HealTicks), healTime,
		}, nil
	})
}

// E18: erasure-coded stripes — the same domain-racked pool and
// overlapped workload run under rs-4+2 coding and under the R=3
// replicated control. Both tolerate the loss of any two fragment/copy
// holders and must lose nothing to the domain kill (degraded reads
// reconstruct or fail over, repair restores full degree, or the run
// fails); the storage column is what that tolerance costs each mode,
// 1.5x vs 3x. What the two modes cost in bandwidth is the wall-clock
// benchmark's to say (coded_degraded_restore beside checkpoint_restore).
func runE18(w io.Writer, quick bool) error {
	clients, iters := pick(quick, 8, 4), pick(quick, 4, 2)
	e := cluster.Metered()
	e.Providers = 12
	spec := workload.OverlapSpec{Clients: clients, Regions: 4, RegionSize: 64 << 10, OverlapFraction: 0.5}
	shape := bench.LossOptions{Domains: 6, Spread: true, Iterations: iters, HealthyReads: 2, DegradedReads: 2}
	replicated, coded := shape, shape
	replicated.Replicas = 3
	coded.Coding = "rs-4+2"
	tbl := bench.NewTable(
		fmt.Sprintf("E18: erasure-coded stripes vs replication (%d clients x 4 regions x 64 KiB, 12 providers / 6 domains, domain zone0 killed)", clients),
		"mode", "storage", "chunks", "killed", "degraded", "lost", "repaired")
	cells := []lossCell{{env: e, spec: spec, opts: replicated}, {env: e, spec: spec, opts: coded}}
	return lossTable(w, tbl, cells, func(res bench.LossResult) ([]string, error) {
		if res.Lost > 0 {
			return nil, fmt.Errorf("E18: %s lost %d chunks to a single-domain kill", res.Mode, res.Lost)
		}
		return []string{
			res.Mode, fmt.Sprintf("%.2fx", res.StorageX), fmt.Sprint(res.Chunks), fmt.Sprint(res.Killed),
			fmt.Sprint(res.Degraded), fmt.Sprint(res.Lost), fmt.Sprint(res.Repair.Repaired),
		}, nil
	})
}

// E11: space reclamation — the retention policy drops all but the
// newest versions and the rate-limited reaper deletes their exclusive
// chunks from every replica. Reported per cell: bytes actually freed
// against the drop schedule's independently computed exclusive set
// (RunGC fails if reclaimed < expected), the reclamation rate, and how
// much a GC storm inflates concurrent foreground write latency — the
// same starvation guard E10 applies to repair.
func runE11(w io.Writer, quick bool) error {
	rounds := pick(quick, 6, 4)
	mib := func(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	tbl := bench.NewTable("E11: version GC (16 regions x 32 KiB, overlap 0.75; keep newest 2 versions, reap the rest)",
		"clients", "R", "gc-rate", "versions", "dropped", "reclaimed MB", "expected MB", "reclaim MB/s", "fg latency impact")
	for _, n := range pick(quick, []int{8, 16}, []int{8}) {
		spec := workload.OverlapSpec{Clients: n, Regions: 16, RegionSize: 32 << 10, OverlapFraction: 0.75}
		for _, r := range []int{2, 3} {
			for _, rate := range []int{4, 16} {
				res, err := bench.RunGC(cluster.Metered(), spec, bench.GCOptions{Replicas: r, Rounds: rounds, KeepLast: 2, GCRate: rate})
				if err != nil {
					return err
				}
				tbl.AddRow(fmt.Sprint(n), fmt.Sprint(r), fmt.Sprint(rate), fmt.Sprint(res.Versions), fmt.Sprint(res.Dropped),
					mib(res.DeletedBytes), mib(res.ExpectedBytes), fmt.Sprintf("%.1f", res.ReclaimMBps), fmt.Sprintf("%.2fx", res.Impact))
			}
		}
	}
	return render(w, tbl)
}

// E13: the hot-path read tier — readers racked in one failure domain
// re-read a replicated file with a 90/10 hot/cold skew. The flat
// rotation fetches roughly (R-1)/R of its bytes from other domains;
// zone-local replica selection collapses that to the chunks with no
// local copy; the bounded read-through cache serves the hot set from
// memory (hit rate reported) and shrinks replica traffic outright.
// Same stored bytes, same durability — the tier only reorders and
// remembers reads.
func runE13(w io.Writer, quick bool) error {
	reads := pick(quick, 400, 200)
	tbl := bench.NewTable("E13: read tier (64-chunk file, 90/10 hot/cold skew, readers in zone0 of 4 domains)",
		"readers", "R", "mode", "reads", "read MB/s", "local bytes", "remote bytes", "cross-domain", "cache hits")
	for _, n := range pick(quick, []int{8, 16}, []int{8}) {
		for _, r := range []int{2, 3} {
			for _, mode := range []bench.ReadTierMode{bench.ReadFlat, bench.ReadZoneLocal, bench.ReadZoneLocalCached} {
				res, err := bench.RunReadTier(cluster.Metered(), bench.ReadTierOptions{
					Replicas: r, Domains: 4, Mode: mode, Readers: n, ReadsPerReader: reads, Seed: 13,
				})
				if err != nil {
					return err
				}
				hits := "-"
				if res.CacheOn {
					hits = fmt.Sprintf("%.1f%%", 100*res.Cache.HitRate())
				}
				tbl.AddRow(fmt.Sprint(n), fmt.Sprint(r), mode.String(), fmt.Sprint(res.Reads), fmt.Sprintf("%.1f", res.ReadMBps),
					fmt.Sprint(res.Locality.LocalBytes), fmt.Sprint(res.Locality.RemoteBytes),
					fmt.Sprintf("%.1f%%", 100*res.CrossFraction), hits)
			}
		}
	}
	return render(w, tbl)
}

// E14: the checkpoint blaster — every rank checkpoints the strided
// N-1 pattern epoch after epoch through write pipes while restore
// readers pin and re-read old epochs, retention feeds the reaper, a
// provider store dies mid-run for the self-heal loop to absorb, and
// the metrics registry times every stage. The first table is the
// run-level counters; the second is the registry's own per-stage
// latency histograms. How fast the checkpoint was written is the
// wall-clock benchmark's to say (checkpoint_restore).
func runE14(w io.Writer, quick bool) error {
	ranks, epochs := pick(quick, 8, 4), pick(quick, 6, 4)
	spec := workload.CheckpointSpec{Ranks: ranks, Segments: 8, SegmentSize: 32 << 10}
	res, err := bench.RunCheckpointBlaster(cluster.Metered(), spec, bench.CheckpointOptions{
		Replicas: 2, Epochs: epochs, KeepLast: 2, Readers: 2, Kill: true,
	})
	if err != nil {
		return err
	}
	run := bench.NewTable(
		fmt.Sprintf("E14: checkpoint blaster (%d ranks x %d segments x 32 KiB, %d epochs, keep 2, kill mid-run)", ranks, spec.Segments, epochs),
		"written MiB", "restores (free-running)", "chunks repaired", "versions reclaimed")
	run.AddRow(fmt.Sprintf("%.1f", float64(res.WrittenBytes)/(1<<20)), fmt.Sprint(res.Restores), fmt.Sprint(res.Repaired), fmt.Sprint(res.Reclaimed))
	if err := render(w, run); err != nil {
		return err
	}
	stages := bench.NewTable("E14: per-stage latency histograms (from the metrics registry)", "stage", "count", "p50", "p95", "p99")
	us := func(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000) }
	for _, s := range res.Stages {
		stages.AddRow(s.Stage, fmt.Sprint(s.Count), us(s.P50), us(s.P95), us(s.P99))
	}
	return render(w, stages)
}
