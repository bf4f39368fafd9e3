package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/workload"
)

// metricDef names one reported metric. The same names, units and
// directions are listed in BENCHMARK.json; bench_test.go keeps the two
// in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the eight end-to-end metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"write_mibps", "MiB/s", "higher"},
	{"read_mibps", "MiB/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"cpu_s_per_gib", "s/GiB", "lower"},
	{"alloc_bytes_per_user_byte", "ratio", "lower"},
	{"stored_bytes_per_user_byte", "ratio", "lower"},
}

// perLayer lists the per-layer metrics of a traced run. A metric whose
// layer does not run on a workload is reported as n/a (value 0 on the
// machine-readable line). exactCounts marks the ones that are counts
// made by the program and must repeat bit-for-bit for one seed.
var perLayer = []metricDef{
	{"client.write_p95_ms", "ms", "lower"},
	{"client.read_p95_ms", "ms", "lower"},
	{"client.epoch_imbalance_ratio", "ratio", "lower"},
	{"client.writer_lateness_p95_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"mpiio.write_self_us_per_op", "us", "lower"},
	{"mpiio.read_self_us_per_op", "us", "lower"},
	{"mpiio.extents_per_op", "count", "lower"},
	{"blob.write_self_ms_per_op", "ms", "lower"},
	{"blob.read_self_ms_per_op", "ms", "lower"},
	{"blob.pieces_per_write", "count", "lower"},
	{"blob.fragments_per_read", "count", "lower"},
	{"vmanager.ticket_us_per_op", "us", "lower"},
	{"vmanager.complete_us_per_op", "us", "lower"},
	{"vmanager.snapshot_us_per_op", "us", "lower"},
	{"vmanager.publish_wait_ms_per_op", "ms", "lower"},
	{"vmanager.calls_per_write", "count", "lower"},
	{"vmanager.calls_per_read", "count", "lower"},
	{"segtree.nodes_put_per_write", "count", "lower"},
	{"segtree.nodes_get_per_read", "count", "lower"},
	{"segtree.build_us_per_write", "us", "lower"},
	{"segtree.resolve_us_per_read", "us", "lower"},
	{"metadata.put_node_ms_per_write", "ms", "lower"},
	{"metadata.get_node_ms_per_read", "ms", "lower"},
	{"metadata.nodes_stored_per_user_mib", "1/MiB", "lower"},
	{"remote.ctrl_rtt_us_p50", "us", "lower"},
	{"remote.ctrl_calls_per_write", "count", "lower"},
	{"remote.ctrl_calls_per_read", "count", "lower"},
	{"remote.data_put_ms_per_mib", "ms/MiB", "lower"},
	{"remote.data_get_ms_per_mib", "ms/MiB", "lower"},
	{"provider.put_busy_ms_per_mib", "ms/MiB", "lower"},
	{"provider.get_busy_ms_per_mib", "ms/MiB", "lower"},
	{"provider.store_gets_per_read", "count", "lower"},
	{"provider.degraded_read_ratio", "ratio", "lower"},
	{"provider.cache_hit_ratio", "ratio", "higher"},
	{"chunk.store_put_us_per_mib", "us/MiB", "lower"},
	{"chunk.store_get_us_per_mib", "us/MiB", "lower"},
	{"chunk.store_puts_per_write", "count", "lower"},
	{"chunk.rs_encode_mibps", "MiB/s", "higher"},
	{"chunk.rs_reconstruct_mibps", "MiB/s", "higher"},
	{"chunk.rs_share_of_write", "ratio", "lower"},
	{"chunk.rs_share_of_read", "ratio", "lower"},
	{"core.reap_pass_s", "s", "lower"},
	{"core.reap_deleted_chunks", "count", "higher"},
}

// exactCounts are the per-layer metrics that are counts made by the
// program: they depend only on the seed and the frozen parameters,
// never on timing, except as exactOn says.
var exactCounts = []string{
	"mpiio.extents_per_op",
	"blob.pieces_per_write",
	"blob.fragments_per_read",
	"vmanager.calls_per_write",
	"vmanager.calls_per_read",
	"segtree.nodes_put_per_write",
	"segtree.nodes_get_per_read",
	"metadata.nodes_stored_per_user_mib",
	"remote.ctrl_calls_per_write",
	"remote.ctrl_calls_per_read",
	"provider.store_gets_per_read",
	"chunk.store_puts_per_write",
	"core.reap_deleted_chunks",
}

// raceDependent are the exact counts that follow which writer won an
// overlap or which snapshot a reader happened to see. Where writes and
// reads race (the overlapping concurrent writers of tile_atomic, the
// reader beside the producer of subarray_reread_beside_writer) they
// are reported but do not repeat.
var raceDependent = map[string]bool{
	"blob.fragments_per_read":            true,
	"segtree.nodes_get_per_read":         true,
	"remote.ctrl_calls_per_read":         true,
	"provider.store_gets_per_read":       true,
	"metadata.nodes_stored_per_user_mib": true,
	"core.reap_deleted_chunks":           true,
}

// lengthDependent are per-write means that vary with the seed-picked
// offset of each write. The open-loop producer makes as many writes as
// fit in the phase, so the mean is over a number of writes that follows
// the reader's speed.
var lengthDependent = map[string]bool{
	"segtree.nodes_put_per_write": true,
	"remote.ctrl_calls_per_write": true,
}

// exactOn reports whether the count repeats bit-for-bit on the
// workload for one seed.
func exactOn(workload, metric string) bool {
	switch workload {
	case wlTile:
		return !raceDependent[metric]
	case wlSubarray:
		return !raceDependent[metric] && !lengthDependent[metric]
	}
	return true
}

// Workload names.
const (
	wlTile     = "tile_atomic"
	wlCkpt     = "checkpoint_restore"
	wlCoded    = "coded_degraded_restore"
	wlSubarray = "subarray_reread_beside_writer"
)

// params are the frozen parameters of one workload. Shapes (tile,
// page, placement) never change; the counts were tuned once so that a
// segment's timed phases take 2-4 s on a 2-core host and its resident
// data stays under ~700 MiB. Every result file records them.
type params struct {
	Name string `json:"name"`

	// Deployment, set through the public constructors only.
	Providers  int   `json:"providers"`
	Domains    int   `json:"domains"`
	Replicas   int   `json:"replicas"`
	CodingK    int   `json:"coding_k"`
	CodingM    int   `json:"coding_m"`
	CacheBytes int64 `json:"cache_bytes"`
	Page       int64 `json:"page"`

	// tile_atomic.
	Tile      workload.TileSpec `json:"tile"`
	ArrayRows int               `json:"array_rows"`

	// checkpoint_restore and coded_degraded_restore.
	Ckpt      workload.CheckpointSpec `json:"checkpoint"`
	Pipelined bool                    `json:"pipelined"`
	DownZone  string                  `json:"down_zone"`

	// subarray_reread_beside_writer.
	ArrayBytes    int64   `json:"array_bytes"`
	RowPitch      int64   `json:"row_pitch"`
	ReadExtents   int     `json:"read_extents"`
	ReadExtentLen int64   `json:"read_extent_len"`
	HotFraction   float64 `json:"hot_fraction"`
	HotProb       float64 `json:"hot_prob"`
	WriteLen      int64   `json:"write_len"`
	WriteShift    int64   `json:"write_shift"`
	WritePeriodMs int     `json:"write_period_ms"`

	// Counts per segment.
	WriteEpochs int `json:"write_epochs"`
	ReadEpochs  int `json:"read_epochs"`
	Reads       int `json:"reads"`
}

const ranks = 2

// frozen returns the benchmark's workloads in reporting order.
func frozen() []params {
	ckpt := workload.CheckpointSpec{Ranks: ranks, Segments: 32, SegmentSize: 1 << 20}
	return []params{
		{
			Name: wlTile, Providers: 8, Replicas: 1, Page: 64 << 10,
			Tile:      workload.TileSpec{TilesX: 2, TilesY: 1, TileX: 4096, TileY: 64, ElementSize: 8, OverlapX: 512},
			ArrayRows: 1024, WriteEpochs: 60, ReadEpochs: 60,
		},
		{
			Name: wlCkpt, Providers: 8, Replicas: 1, Page: 1 << 20,
			Ckpt: ckpt, Pipelined: true, WriteEpochs: 9, ReadEpochs: 20,
		},
		{
			Name: wlCoded, Providers: 12, Domains: 6, Replicas: 1, CodingK: 4, CodingM: 2, Page: 1 << 20,
			Ckpt: ckpt, Pipelined: true, DownZone: "zone0", WriteEpochs: 6, ReadEpochs: 12,
		},
		{
			Name: wlSubarray, Providers: 9, Domains: 3, Replicas: 3, CacheBytes: 32 << 20, Page: 256 << 10,
			ArrayBytes: 128 << 20, RowPitch: 1 << 20, ReadExtents: 16, ReadExtentLen: 16 << 10,
			HotFraction: 0.1, HotProb: 0.9, WriteLen: 256 << 10, WriteShift: 4 << 10, WritePeriodMs: 25,
			Reads: 500,
		},
	}
}

// tiny shrinks a workload's counts (never its shapes) to a segment of
// a fraction of a second, for bench_test.go.
func tiny(p params) params {
	switch p.Name {
	case wlTile:
		p.ArrayRows, p.WriteEpochs, p.ReadEpochs = 128, 3, 3
	case wlCkpt, wlCoded:
		p.Ckpt.Segments, p.WriteEpochs, p.ReadEpochs = 4, 2, 2
	case wlSubarray:
		p.ArrayBytes, p.Reads = 16<<20, 20
	}
	return p
}

func lookup(name string) (params, bool) {
	for _, p := range frozen() {
		if p.Name == name {
			return p, true
		}
	}
	return params{}, false
}

// benchSpec is BENCHMARK.json as the comparison modes need it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the directory `go run ./benchmark`
// is started in, or from the parent when run inside benchmark/.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}
