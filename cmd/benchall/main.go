// Command benchall regenerates every experiment in EXPERIMENTS.md:
// the full E1–E6 matrix of the paper's evaluation (scalability of
// atomic overlapped non-contiguous writes, MPI-tile-IO, region-count
// sweep, overlap sweep, striping sweep, and the headline throughput
// ratio) plus the follow-on scenarios: E7 producer/consumer, E8 group
// commit, E9 chunk replication (write overhead of R copies and
// degraded-read throughput with a provider killed mid-run), and E10
// self-healing (time from an undetected provider-store loss to full
// re-replication, with and without read-repair), E11 space
// reclamation (bytes reclaimed by version GC against the drop
// schedule's exclusive set, the reclamation rate at the configured
// delete budget, and the foreground write-latency impact of a GC
// storm), E12 correlated loss (durability and repair time when a
// whole failure domain dies at once, domain-spread placement vs the
// flat control), and E13 the hot-path read tier (cross-domain read
// fraction and cache hit rate of skewed re-reads under flat rotation,
// zone-local replica selection, and the bounded read-through cache),
// and E14 the checkpoint blaster (N ranks checkpoint a strided N-1
// file epoch after epoch while restore readers pin old epochs, the
// reaper chews the retention backlog and a provider dies mid-run;
// reported from the metrics registry as per-stage latency
// histograms: ticket, commit, publish, pipe write, chunk put/get,
// repair, reap), and E16 control-plane sharding (E8's workload with
// one blob per client rerun at 1/2/4/8 vmanager shards — publish
// throughput scaling as the serialized control path is partitioned),
// and E18 erasure-coded stripes (the same
// domain-racked pool and workload run under rs-4+2 coding vs the R=3
// replicated control: storage overhead, write bandwidth, and read
// throughput healthy and with one whole failure domain dead —
// equivalent domain-kill durability at 1.5x storage instead of 3x).
// Expect a full run to take a few minutes; -quick shrinks the matrix
// for smoke runs; -only E14 (comma-separated names) selects a subset.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// experiments maps the -only selector names onto their runners.
var experiments = map[string]func(bool){
	"E1": runE1, "E2": runE2, "E3": runE3, "E4": runE4, "E5": runE5,
	"E6": runE6, "E7": runE7, "E8": runE8, "E9": runE9, "E10": runE10,
	"E11": runE11, "E12": runE12, "E13": runE13, "E14": runE14,
	"E16": runE16, "E18": runE18,
}

func main() {
	quick := flag.Bool("quick", false, "smaller matrix for a fast smoke run")
	headline := flag.Bool("headline", false, "run only E6 (headline ratio)")
	only := flag.String("only", "", "comma-separated experiment names to run (e.g. E14 or E1,E6); empty = all")
	flag.Parse()

	start := time.Now()
	switch {
	case *only != "":
		runners, err := selectRunners(*only)
		if err != nil {
			die(err)
		}
		for _, run := range runners {
			run(*quick)
		}
	case *headline:
		runE6(*quick)
	default:
		runE1(*quick)
		runE2(*quick)
		runE3(*quick)
		runE4(*quick)
		runE5(*quick)
		runE7(*quick)
		runE8(*quick)
		runE9(*quick)
		runE10(*quick)
		runE11(*quick)
		runE12(*quick)
		runE13(*quick)
		runE14(*quick)
		runE16(*quick)
		runE18(*quick)
		runE6(*quick)
	}
	fmt.Printf("\ntotal benchmark wall time: %.1fs\n", time.Since(start).Seconds())
}

// selectRunners resolves a -only selector into runners, validating
// every name before any experiment runs: a typo fails fast with the
// full list of valid names instead of silently skipping (or worse,
// failing only after the experiments named before it already ran).
func selectRunners(only string) ([]func(bool), error) {
	var runners []func(bool)
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		run, ok := experiments[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experimentNames(), ", "))
		}
		runners = append(runners, run)
	}
	return runners, nil
}

// experimentNames lists the valid -only names in numeric order,
// derived from the experiments map so the error message can never
// drift from what actually runs.
func experimentNames() []string {
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		ni, _ := strconv.Atoi(strings.TrimPrefix(names[i], "E"))
		nj, _ := strconv.Atoi(strings.TrimPrefix(names[j], "E"))
		return ni < nj
	})
	return names
}

func env() cluster.Env { return cluster.Metered() }

func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// E1: aggregated throughput vs number of clients.
func runE1(quick bool) {
	clients := []int{1, 2, 4, 8, 16, 32, 64}
	systems := []bench.SystemKind{bench.Versioning, bench.LockBounding, bench.LockWholeFile, bench.LockConflictDetect}
	iters := 2
	if quick {
		clients = []int{1, 4, 16}
		iters = 1
	}
	tbl := bench.NewTable("E1: atomic overlapped non-contiguous writes, throughput vs clients (32 regions x 64 KiB, overlap 0.75)",
		bench.StandardHeader()...)
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
		for _, kind := range systems {
			res, err := bench.RunOverlap(kind, env(), spec, bench.OverlapOptions{Iterations: iters, Warmup: 1})
			if err != nil {
				die(err)
			}
			tbl.AddResult(res)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E2: MPI-tile-IO, independent and collective.
func runE2(quick bool) {
	grids := []int{2, 4, 6, 8}
	if quick {
		grids = []int{2, 4}
	}
	for _, collective := range []bool{false, true} {
		mode := "independent"
		if collective {
			mode = "collective"
		}
		tbl := bench.NewTable(
			fmt.Sprintf("E2: MPI-tile-IO (%s I/O, 64x64 tiles of 32B elements, overlap 16)", mode),
			bench.StandardHeader()...)
		for _, g := range grids {
			spec := workload.TileSpec{
				TilesX: g, TilesY: g,
				TileX: 64, TileY: 64,
				ElementSize: 32,
				OverlapX:    16, OverlapY: 16,
			}
			for _, kind := range []bench.SystemKind{bench.Versioning, bench.LockBounding} {
				res, err := bench.RunTile(kind, env(), spec, bench.TileOptions{Collective: collective, Iterations: 2, Warmup: 1})
				if err != nil {
					die(err)
				}
				tbl.AddResult(res)
			}
		}
		tbl.Render(os.Stdout)
		fmt.Println()
	}
}

// E3: sensitivity to the number of non-contiguous regions per call.
func runE3(quick bool) {
	regions := []int{1, 4, 16, 64, 256}
	if quick {
		regions = []int{4, 64}
	}
	tbl := bench.NewTable("E3: throughput vs regions per call (16 clients, 16 KiB regions, overlap 0.75)",
		append([]string{"regions"}, bench.StandardHeader()...)...)
	for _, r := range regions {
		spec := workload.OverlapSpec{Clients: 16, Regions: r, RegionSize: 16 << 10, OverlapFraction: 0.75}
		for _, kind := range []bench.SystemKind{bench.Versioning, bench.LockBounding, bench.LockList, bench.LockDataSieve} {
			res, err := bench.RunOverlap(kind, env(), spec, bench.OverlapOptions{Iterations: 2, Warmup: 1})
			if err != nil {
				die(err)
			}
			tbl.AddRow(append([]string{fmt.Sprintf("%d", r)}, resultCells(res)...)...)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E4: overlap-fraction sweep (where conflict detection wins and loses).
func runE4(quick bool) {
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	if quick {
		fractions = []float64{0, 1}
	}
	tbl := bench.NewTable("E4: throughput vs overlap fraction (16 clients, 32 regions x 64 KiB)",
		append([]string{"overlap"}, bench.StandardHeader()...)...)
	for _, f := range fractions {
		spec := workload.OverlapSpec{Clients: 16, Regions: 32, RegionSize: 64 << 10, OverlapFraction: f}
		for _, kind := range []bench.SystemKind{bench.Versioning, bench.LockBounding, bench.LockConflictDetect} {
			res, err := bench.RunOverlap(kind, env(), spec, bench.OverlapOptions{Iterations: 2, Warmup: 1})
			if err != nil {
				die(err)
			}
			tbl.AddRow(append([]string{fmt.Sprintf("%.2f", f)}, resultCells(res)...)...)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E5: striping sweep (providers/OSTs).
func runE5(quick bool) {
	providers := []int{1, 2, 4, 8, 16}
	if quick {
		providers = []int{2, 8}
	}
	tbl := bench.NewTable("E5: throughput vs striping width (16 clients, 32 regions x 64 KiB, overlap 0.75)",
		append([]string{"providers"}, bench.StandardHeader()...)...)
	for _, p := range providers {
		e := env()
		e.Providers = p
		spec := workload.OverlapSpec{Clients: 16, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
		for _, kind := range []bench.SystemKind{bench.Versioning, bench.LockBounding} {
			res, err := bench.RunOverlap(kind, e, spec, bench.OverlapOptions{Iterations: 2, Warmup: 1})
			if err != nil {
				die(err)
			}
			tbl.AddRow(append([]string{fmt.Sprintf("%d", p)}, resultCells(res)...)...)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E6: the headline claim — aggregated-throughput ratio range of
// versioning over the Lustre-style locking baseline.
func runE6(quick bool) {
	clients := []int{8, 16, 32, 64}
	if quick {
		clients = []int{8, 16}
	}
	tbl := bench.NewTable("E6: headline ratio versioning / lock-bounding (paper claims 3.5x-10x)",
		"clients", "versioning MB/s", "lock-bounding MB/s", "ratio")
	lo, hi := 0.0, 0.0
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
		v, err := bench.RunOverlap(bench.Versioning, env(), spec, bench.OverlapOptions{Iterations: 2, Warmup: 1})
		if err != nil {
			die(err)
		}
		l, err := bench.RunOverlap(bench.LockBounding, env(), spec, bench.OverlapOptions{Iterations: 2, Warmup: 1})
		if err != nil {
			die(err)
		}
		ratio := bench.Ratio(v.MBps, l.MBps)
		if lo == 0 || ratio < lo {
			lo = ratio
		}
		if ratio > hi {
			hi = ratio
		}
		tbl.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f", v.MBps), fmt.Sprintf("%.1f", l.MBps), fmt.Sprintf("%.2fx", ratio))
	}
	tbl.Render(os.Stdout)
	fmt.Printf("observed ratio band: %.2fx - %.2fx (paper: 3.5x - 10x)\n", lo, hi)
}

// E7: producer/consumer concurrency — the paper's future-work claim
// that versioning avoids synchronization between simulation output and
// visualization input.
func runE7(quick bool) {
	readers := []int{1, 4, 8}
	if quick {
		readers = []int{4}
	}
	tbl := bench.NewTable("E7: concurrent producers+consumers (8 writers x 4 calls; readers scan the full file under atomicity)",
		"system", "readers", "write MB/s", "read MB/s", "mean read lat", "max read lat")
	for _, nr := range readers {
		spec := bench.MixedSpec{
			Writers: 8, Readers: nr,
			WriteCalls: 4, ReadCalls: 4,
			Pattern: workload.OverlapSpec{
				Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75,
			},
		}
		for _, kind := range []bench.SystemKind{bench.Versioning, bench.LockBounding} {
			res, err := bench.RunMixed(kind, env(), spec)
			if err != nil {
				die(err)
			}
			tbl.AddRow(
				res.System.String(),
				fmt.Sprintf("%d", nr),
				fmt.Sprintf("%.1f", res.WriteMBps),
				fmt.Sprintf("%.1f", res.ReadMBps),
				fmt.Sprintf("%.1fms", float64(res.MeanReadLatency.Microseconds())/1000),
				fmt.Sprintf("%.1fms", float64(res.MaxReadLatency.Microseconds())/1000),
			)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E8: group commit — overlapped small writes through write pipes, with
// the version manager's group-commit pipeline at increasing batch
// sizes. Small calls make the per-call control round trips (ticket
// grant + publish) the bottleneck; group commit amortizes them.
func runE8(quick bool) {
	clients := []int{8, 16, 32}
	iters := 16
	if quick {
		clients = []int{16}
		iters = 8
	}
	batches := []int{1, 8, 64}
	tbl := bench.NewTable("E8: group-commit write pipeline (4 regions x 4 KiB per call, overlap 0.75, pipe depth 4)",
		"clients", "batch", "MB/s", "elapsed", "speedup vs batch=1")
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.75}
		var base float64
		for _, mb := range batches {
			cfg := vmanager.BatchConfig{MaxBatch: mb, MaxDelay: 50 * time.Microsecond}
			res, err := bench.RunSmallWrites(env(), spec, bench.SmallWriteOptions{
				Iterations: iters, Batch: cfg, PipeDepth: 4,
			})
			if err != nil {
				die(err)
			}
			if mb == 1 {
				base = res.MBps
			}
			tbl.AddRow(
				fmt.Sprintf("%d", n),
				bench.BatchLabel(cfg),
				fmt.Sprintf("%.1f", res.MBps),
				fmt.Sprintf("%.3fs", res.Elapsed.Seconds()),
				fmt.Sprintf("%.2fx", bench.Ratio(res.MBps, base)),
			)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E9: chunk replication — the write overhead of storing R copies on
// distinct providers, and what one provider dying mid-run costs: with
// R >= 2 reads fail over to surviving replicas (throughput dips, data
// survives, repair restores R); with R = 1 the degraded phase loses
// data outright.
func runE9(quick bool) {
	clients := []int{8, 16}
	iters := 2
	if quick {
		clients = []int{8}
		iters = 1
	}
	tbl := bench.NewTable("E9: replication (32 regions x 64 KiB, overlap 0.75; one provider killed mid-run)",
		"clients", "R", "write MB/s", "write overhead", "read MB/s", "degraded MB/s", "repair", "repaired")
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
		var base float64
		for _, r := range []int{1, 2, 3} {
			res, err := bench.RunReplicated(env(), spec, bench.ReplicatedOptions{Replicas: r, Iterations: iters})
			if err != nil {
				die(err)
			}
			if r == 1 {
				base = res.WriteMBps
			}
			degraded := fmt.Sprintf("%.1f", res.DegradedMBps)
			if res.DegradedErr != nil {
				degraded = "data lost"
			}
			tbl.AddRow(
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", r),
				fmt.Sprintf("%.1f", res.WriteMBps),
				fmt.Sprintf("%.2fx", bench.Ratio(base, res.WriteMBps)),
				fmt.Sprintf("%.1f", res.ReadMBps),
				degraded,
				fmt.Sprintf("%.1fms", float64(res.RepairElapsed.Microseconds())/1000),
				fmt.Sprintf("%d", res.Repair.Repaired),
			)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E10: self-healing — after a provider's store dies (no SetDown, no
// repair command), how long until the error-driven detector notices
// and the rate-limited scrubber/repair loop restores full replication,
// with and without the read path feeding the repair queue. Ticks are
// healer control-loop iterations; time is metered wall clock.
func runE10(quick bool) {
	clients := []int{8, 16}
	if quick {
		clients = []int{8}
	}
	tbl := bench.NewTable("E10: self-healing (32 regions x 64 KiB, overlap 0.75; one provider store killed, zero operator action)",
		"clients", "R", "mode", "chunks", "degraded", "detect@tick", "heal ticks", "heal time", "repaired")
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
		for _, r := range []int{2, 3} {
			for _, rr := range []bool{false, true} {
				res, err := bench.RunSelfHeal(env(), spec, bench.SelfHealOptions{Replicas: r, ReadRepair: rr})
				if err != nil {
					die(err)
				}
				mode := "scrub only"
				if rr {
					mode = "+read-repair"
				}
				tbl.AddRow(
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", r),
					mode,
					fmt.Sprintf("%d", res.Chunks),
					fmt.Sprintf("%d", res.Degraded),
					fmt.Sprintf("%d", res.DetectTicks),
					fmt.Sprintf("%d", res.HealTicks),
					fmt.Sprintf("%.1fms", float64(res.HealElapsed.Microseconds())/1000),
					fmt.Sprintf("%d", res.Stats.Repaired),
				)
			}
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E11: space reclamation — the retention policy drops all but the
// newest versions and the rate-limited reaper deletes their exclusive
// chunks from every replica. Reported per cell: bytes actually freed
// against the drop schedule's independently computed exclusive set
// (RunGC fails if reclaimed < expected), the reclamation rate, and how
// much a GC storm inflates concurrent foreground write latency — the
// same starvation guard E10 applies to repair.
func runE11(quick bool) {
	clients := []int{8, 16}
	rounds := 6
	if quick {
		clients = []int{8}
		rounds = 4
	}
	tbl := bench.NewTable("E11: version GC (16 regions x 32 KiB, overlap 0.75; keep newest 2 versions, reap the rest)",
		"clients", "R", "gc-rate", "versions", "dropped", "reclaimed MB", "expected MB", "reclaim MB/s", "fg latency impact")
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 16, RegionSize: 32 << 10, OverlapFraction: 0.75}
		for _, r := range []int{2, 3} {
			for _, rate := range []int{4, 16} {
				res, err := bench.RunGC(env(), spec, bench.GCOptions{
					Replicas: r, Rounds: rounds, KeepLast: 2, GCRate: rate,
				})
				if err != nil {
					die(err)
				}
				tbl.AddRow(
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", r),
					fmt.Sprintf("%d", rate),
					fmt.Sprintf("%d", res.Versions),
					fmt.Sprintf("%d", res.Dropped),
					fmt.Sprintf("%.1f", float64(res.DeletedBytes)/(1<<20)),
					fmt.Sprintf("%.1f", float64(res.ExpectedBytes)/(1<<20)),
					fmt.Sprintf("%.1f", res.ReclaimMBps),
					fmt.Sprintf("%.2fx", res.Impact),
				)
			}
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E12: correlated loss — every provider of one failure domain dies at
// once (store level, zero operator action). Domain-spread placement
// keeps the loss to at most one copy per chunk (100% survival) and the
// healer re-replicates into the surviving domains, restoring the
// distinct-domain spread; the flat control shows the same kill losing
// the chunks whose copies happened to be racked together. Durability
// is free: both modes store exactly R copies.
func runE12(quick bool) {
	clients := []int{8, 16}
	if quick {
		clients = []int{8}
	}
	tbl := bench.NewTable("E12: correlated domain loss (32 regions x 64 KiB, overlap 0.75; 8 providers in 4 domains, one whole domain store-killed)",
		"clients", "R", "placement", "chunks", "killed", "degraded", "lost", "survived", "detect@tick", "heal ticks", "heal time")
	for _, n := range clients {
		spec := workload.OverlapSpec{Clients: n, Regions: 32, RegionSize: 64 << 10, OverlapFraction: 0.75}
		for _, r := range []int{2, 3} {
			for _, spread := range []bool{false, true} {
				res, err := bench.RunDomainLoss(env(), spec, bench.DomainLossOptions{Replicas: r, Domains: 4, Spread: spread})
				if err != nil {
					die(err)
				}
				mode := "flat"
				if spread {
					mode = "domain-spread"
				}
				heal, healTime, detect := "-", "data lost", "-"
				if res.HealTicks >= 0 {
					heal = fmt.Sprintf("%d", res.HealTicks)
					healTime = fmt.Sprintf("%.1fms", float64(res.HealElapsed.Microseconds())/1000)
					detect = fmt.Sprintf("%d", res.DetectTicks)
				}
				tbl.AddRow(
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", r),
					mode,
					fmt.Sprintf("%d", res.Chunks),
					fmt.Sprintf("%d", res.Killed),
					fmt.Sprintf("%d", res.Degraded),
					fmt.Sprintf("%d", res.Lost),
					fmt.Sprintf("%.1f%%", res.SurvivedPct),
					detect,
					heal,
					healTime,
				)
			}
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E13: the hot-path read tier — readers racked in one failure domain
// re-read a replicated file with a 90/10 hot/cold skew. The flat
// rotation fetches roughly (R-1)/R of its bytes from other domains;
// zone-local replica selection collapses that to the chunks with no
// local copy; the bounded read-through cache serves the hot set from
// memory (hit rate reported) and shrinks replica traffic outright.
// Same stored bytes, same durability — the tier only reorders and
// remembers reads.
func runE13(quick bool) {
	readers := []int{8, 16}
	reads := 400
	if quick {
		readers = []int{8}
		reads = 200
	}
	tbl := bench.NewTable("E13: read tier (64-chunk file, 90/10 hot/cold skew, readers in zone0 of 4 domains)",
		"readers", "R", "mode", "reads", "read MB/s", "local bytes", "remote bytes", "cross-domain", "cache hits")
	for _, n := range readers {
		for _, r := range []int{2, 3} {
			for _, mode := range []bench.ReadTierMode{bench.ReadFlat, bench.ReadZoneLocal, bench.ReadZoneLocalCached} {
				res, err := bench.RunReadTier(env(), bench.ReadTierOptions{
					Replicas: r, Domains: 4, Mode: mode,
					Readers: n, ReadsPerReader: reads, Seed: 13,
				})
				if err != nil {
					die(err)
				}
				hits := "-"
				if res.CacheOn {
					hits = fmt.Sprintf("%.1f%%", 100*res.Cache.HitRate())
				}
				tbl.AddRow(
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", r),
					mode.String(),
					fmt.Sprintf("%d", res.Reads),
					fmt.Sprintf("%.1f", res.ReadMBps),
					fmt.Sprintf("%d", res.Locality.LocalBytes),
					fmt.Sprintf("%d", res.Locality.RemoteBytes),
					fmt.Sprintf("%.1f%%", 100*res.CrossFraction),
					hits,
				)
			}
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E14: the checkpoint blaster — every rank checkpoints the strided
// N-1 pattern epoch after epoch through write pipes while restore
// readers pin and re-read old epochs, retention feeds the reaper, a
// provider store dies mid-run for the self-heal loop to absorb, and
// the metrics registry times every stage. The table is the registry's
// own per-stage latency histograms; a second table reports the
// run-level counters.
func runE14(quick bool) {
	ranks, epochs := 8, 6
	if quick {
		ranks, epochs = 4, 4
	}
	spec := workload.CheckpointSpec{Ranks: ranks, Segments: 8, SegmentSize: 32 << 10}
	res, err := bench.RunCheckpointBlaster(env(), spec, bench.CheckpointOptions{
		Replicas: 2, Epochs: epochs, KeepLast: 2, Readers: 2, Kill: true,
	})
	if err != nil {
		die(err)
	}
	fmt.Printf("E14: checkpoint blaster (%d ranks x %d segments x 32 KiB, %d epochs, keep 2, kill mid-run)\n",
		ranks, spec.Segments, epochs)
	fmt.Printf("written %.1f MiB at %.1f MB/s; %d restores, %d chunks repaired, %d versions reclaimed\n",
		float64(res.WrittenBytes)/(1<<20), res.WriteMBps, res.Restores, res.Repaired, res.Reclaimed)
	tbl := bench.NewTable("E14: per-stage latency histograms (from the metrics registry)",
		"stage", "count", "p50", "p95", "p99")
	for _, s := range res.Stages {
		tbl.AddRow(
			s.Stage,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.3fms", float64(s.P50.Microseconds())/1000),
			fmt.Sprintf("%.3fms", float64(s.P95.Microseconds())/1000),
			fmt.Sprintf("%.3fms", float64(s.P99.Microseconds())/1000),
		)
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E16: control-plane sharding — E8's overlapped-small-write pipeline
// with one blob per client, rerun at increasing vmanager shard counts.
// Small calls make the serialized control round trips (ticket grant +
// publish) the ceiling; partitioning blobs across shards splits that
// serialization N ways, so publish throughput should scale near
// linearly until the data path takes over. shards=1 is the control: it
// must reproduce E8's single-manager numbers within noise.
func runE16(quick bool) {
	clients := 16
	iters := 16
	if quick {
		iters = 8
	}
	shardCounts := []int{1, 2, 4, 8}
	batches := []int{1, 8}
	// A wide data plane (providers and metadata shards already scale
	// out) keeps the bottleneck on the one path this experiment
	// varies: the control plane.
	e := env()
	e.Providers = 32
	e.MetaShards = 16
	// "ctrl publishes/s" is calls divided by the busiest shard's
	// metered service time — the control plane's sustainable rate in
	// the simulation's own currency. Wall time is also shown but on a
	// small host it is bound by the clients' real CPU work, not by the
	// modeled control servers this experiment varies.
	tbl := bench.NewTable("E16: control-plane sharding (16 clients x 4 own blobs, 4 regions x 4 KiB per call, overlap 0.75, pipe depth 4, 32 providers)",
		"shards", "batch", "ctrl publishes/s", "ctrl busy", "wall", "wall MB/s", "speedup vs shards=1")
	for _, mb := range batches {
		cfg := vmanager.BatchConfig{MaxBatch: mb, MaxDelay: 50 * time.Microsecond}
		var base float64
		for _, shards := range shardCounts {
			spec := workload.OverlapSpec{Clients: clients, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.75}
			res, err := bench.RunShardedPublish(e, spec, bench.ShardedPublishOptions{
				Shards: shards, Iterations: iters, Batch: cfg, PipeDepth: 4, BlobsPerClient: 4,
			})
			if err != nil {
				die(err)
			}
			pubRate := float64(res.Calls) / res.CtrlBusy.Seconds()
			if shards == 1 {
				base = pubRate
			}
			tbl.AddRow(
				fmt.Sprintf("%d", shards),
				bench.BatchLabel(cfg),
				fmt.Sprintf("%.0f", pubRate),
				fmt.Sprintf("%.1fms", res.CtrlBusy.Seconds()*1e3),
				fmt.Sprintf("%.3fs", res.Elapsed.Seconds()),
				fmt.Sprintf("%.1f", res.MBps),
				fmt.Sprintf("%.2fx", bench.Ratio(pubRate, base)),
			)
		}
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

// E18: erasure-coded stripes — the same domain-racked pool and
// overlapped workload run under rs-4+2 coding and under the R=3
// replicated control. Both tolerate the loss of any two fragment/copy
// holders; the storage column is what that tolerance costs each mode
// (1.5x vs 3x), and the degraded column is what reconstruction costs
// reads when one whole failure domain is dead.
func runE18(quick bool) {
	clients, iters := 8, 4
	if quick {
		clients, iters = 4, 2
	}
	e := env()
	e.Providers = 12
	spec := workload.OverlapSpec{Clients: clients, Regions: 4, RegionSize: 64 << 10, OverlapFraction: 0.5}
	tbl := bench.NewTable(
		fmt.Sprintf("E18: erasure-coded stripes vs replication (%d clients x 4 regions x 64 KiB, 12 providers / 6 domains, domain zone0 killed)", clients),
		"mode", "storage", "write MB/s", "read MB/s", "degraded MB/s", "lost", "repair")
	for _, opts := range []bench.CodedOptions{
		{Replicas: 3, Domains: 6, Iterations: iters},
		{Coding: "rs-4+2", Domains: 6, Iterations: iters},
	} {
		res, err := bench.RunCoded(e, spec, opts)
		if err != nil {
			die(err)
		}
		tbl.AddRow(
			res.Mode,
			fmt.Sprintf("%.2fx", res.StorageX),
			fmt.Sprintf("%.1f", res.WriteMBps),
			fmt.Sprintf("%.1f", res.ReadMBps),
			fmt.Sprintf("%.1f", res.DegradedMBps),
			fmt.Sprintf("%d", res.Lost),
			fmt.Sprintf("%.3fs", res.RepairElapsed.Seconds()),
		)
	}
	tbl.Render(os.Stdout)
	fmt.Println()
}

func resultCells(r bench.Result) []string {
	return []string{
		r.System.String(),
		fmt.Sprintf("%d", r.Clients),
		fmt.Sprintf("%.1f", r.MBps),
		fmt.Sprintf("%.3fs", r.Elapsed.Seconds()),
		fmt.Sprintf("%.3fs", r.LockWait.Seconds()),
	}
}
