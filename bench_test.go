// Root benchmark suite: one testing.B benchmark per experiment of the
// paper's evaluation (E1–E7), over the same cells cmd/benchall runs
// with -quick — the matrices are internal/experiments', read here, not
// re-typed. Each benchmark iteration runs one complete experiment cell
// on the metered (simulated-hardware) environment and reports
// aggregated throughput as the custom metric MB/s — the quantity the
// paper's evaluation plots. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// reportMBps runs one cell b.N times and reports its mean throughput.
func reportMBps(b *testing.B, run func() (bench.Result, error)) {
	b.Helper()
	var mbps float64
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		mbps += res.MBps
		bytes += res.Bytes
	}
	b.SetBytes(bytes / int64(b.N))
	b.ReportMetric(mbps/float64(b.N), "MB/s")
}

// benchSweep benchmarks every cell x system of an overlap sweep.
func benchSweep(b *testing.B, s experiments.OverlapSweep) {
	for _, cell := range s.Cells(true) {
		for _, kind := range s.Systems {
			b.Run(fmt.Sprintf("%s=%s/%s", s.Param, cell.Value, kind), func(b *testing.B) {
				reportMBps(b, func() (bench.Result, error) {
					return bench.RunOverlap(kind, cell.Env, cell.Spec, cell.Opts)
				})
			})
		}
	}
}

// BenchmarkE1AtomicScalability reproduces the paper's first experiment:
// aggregated throughput of concurrent atomic overlapped non-contiguous
// writes, versioning vs the locking baselines.
func BenchmarkE1AtomicScalability(b *testing.B) { benchSweep(b, experiments.E1) }

// BenchmarkE2MPITileIO reproduces the paper's second experiment: the
// MPI-tile-IO benchmark with overlapping tiles under atomic mode.
func BenchmarkE2MPITileIO(b *testing.B) {
	m := experiments.E2
	for _, collective := range []bool{false, true} {
		for _, g := range m.Grids(true) {
			for _, kind := range m.Systems {
				b.Run(fmt.Sprintf("%s/grid=%d/%s", experiments.TileMode(collective), g, kind), func(b *testing.B) {
					reportMBps(b, func() (bench.Result, error) {
						return bench.RunTile(kind, cluster.Metered(), m.Spec(g), m.Opts(collective))
					})
				})
			}
		}
	}
}

// BenchmarkE3RegionsSweep measures the cost of growing the number of
// non-contiguous regions per call (locking cost grows; versioning is
// insensitive).
func BenchmarkE3RegionsSweep(b *testing.B) { benchSweep(b, experiments.E3) }

// BenchmarkE4OverlapSweep measures sensitivity to the overlap fraction
// (conflict detection wins at zero overlap, loses under full overlap;
// versioning is flat).
func BenchmarkE4OverlapSweep(b *testing.B) { benchSweep(b, experiments.E4) }

// BenchmarkE5StripingSweep measures the effect of the striping width
// (the paper's data-striping design principle).
func BenchmarkE5StripingSweep(b *testing.B) { benchSweep(b, experiments.E5) }

// BenchmarkE6HeadlineRatio reports the headline number: the ratio of
// versioning to lock-bounding aggregated throughput. The paper claims
// 3.5x-10x across its setups.
func BenchmarkE6HeadlineRatio(b *testing.B) {
	s := experiments.E6
	for _, cell := range s.Cells(true) {
		b.Run(fmt.Sprintf("%s=%s", s.Param, cell.Value), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				var mbps [2]float64
				for j, kind := range s.Systems {
					res, err := bench.RunOverlap(kind, cell.Env, cell.Spec, cell.Opts)
					if err != nil {
						b.Fatal(err)
					}
					mbps[j] = res.MBps
				}
				ratio += bench.Ratio(mbps[0], mbps[1])
			}
			b.ReportMetric(ratio/float64(b.N), "x-speedup")
		})
	}
}

// BenchmarkE7ProducerConsumer measures concurrent writers + full-file
// readers: versioning readers pin snapshots and are unaffected by the
// write storm; locking readers queue behind exclusive writer locks
// (the paper's future-work argument for application-level versioning).
func BenchmarkE7ProducerConsumer(b *testing.B) {
	m := experiments.E7
	for _, readers := range m.Readers(true) {
		for _, kind := range m.Systems {
			b.Run(fmt.Sprintf("readers=%d/%s", readers, kind), func(b *testing.B) {
				var readMBps, writeMBps, readLatMs float64
				for i := 0; i < b.N; i++ {
					res, err := bench.RunMixed(kind, cluster.Metered(), m.Spec(readers))
					if err != nil {
						b.Fatal(err)
					}
					readMBps += res.ReadMBps
					writeMBps += res.WriteMBps
					readLatMs += float64(res.MeanReadLatency.Microseconds()) / 1000
				}
				b.ReportMetric(readMBps/float64(b.N), "read-MB/s")
				b.ReportMetric(writeMBps/float64(b.N), "write-MB/s")
				b.ReportMetric(readLatMs/float64(b.N), "read-lat-ms")
			})
		}
	}
}

// BenchmarkHaloDump measures the motivating ghost-cell application
// pattern end to end through the MPI-I/O layer.
func BenchmarkHaloDump(b *testing.B) {
	spec := workload.HaloSpec{PX: 4, PY: 2, CoreX: 128, CoreY: 128, Halo: 2, ElementSize: 8}
	for _, kind := range []bench.SystemKind{bench.Versioning, bench.LockBounding} {
		b.Run(kind.String(), func(b *testing.B) {
			var mbps float64
			for i := 0; i < b.N; i++ {
				res, err := bench.RunHalo(kind, cluster.Metered(), spec, 1)
				if err != nil {
					b.Fatal(err)
				}
				mbps += res.MBps
			}
			b.ReportMetric(mbps/float64(b.N), "MB/s")
		})
	}
}
