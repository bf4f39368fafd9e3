// Command benchmark is this repository's wall-clock benchmark: four
// segmented MPI-I/O workloads driven through the whole real stack (an
// in-process remote.Listen node reached over TCP loopback by framed
// clients), eight end-to-end metrics per workload, and a traced run
// that attributes them to layers. See README.md.
//
//	go run ./benchmark --workload tile_atomic --seed 1 --seconds 28 --trace 0
//	go run ./benchmark -aa 6            # A/A evidence over the whole suite
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all four")
	seed := fs.Int64("seed", 1, "seed for payloads, offsets and hot/cold picks")
	seconds := fs.Float64("seconds", 28, "time budget per workload: fixed-work segments are run until it is spent")
	trace := fs.Int("trace", 0, "1 interleaves traced segments and prints the per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "with -trace 1, append every span to this file as JSON lines")
	out := fs.String("out", "", "write the result ledger (all runs made, with provenance) to this file")
	aa := fs.Int("aa", 0, "run the suite N times back to back and print the A/A table")
	compare := fs.Bool("compare", false, "compare two result ledgers: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two ledger files"))
		}
		regressed, err := compareLedgers(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	selected := frozen()
	if *name != "" {
		p, ok := lookup(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []params{p}
	}
	led := newLedger(*seed, *seconds)
	rounds := max(*aa, 1)
	for round := 0; round < rounds; round++ {
		for _, p := range selected {
			res, err := runWorkload(p, *seed+int64(round), runOpts{
				budget: *seconds, traced: *trace == 1, traceOut: *traceOut, minPlain: 3, minTraced: 2,
			})
			if err != nil {
				return fail(err)
			}
			led.Runs = append(led.Runs, res)
			res.print(stdout)
		}
	}
	if *out != "" {
		if err := led.write(*out); err != nil {
			return fail(err)
		}
	}
	if *aa > 0 {
		if err := aaTable(stdout, led); err != nil {
			return fail(err)
		}
	}
	return 0
}

// metricValue is one reported number. Samples is how many segments
// the value summarises, Calls how many timed calls a latency is taken
// over. NA marks a layer that does not run on the workload.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Calls   int     `json:"calls,omitempty"`
	NA      bool    `json:"na,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// InputDigest is a checksum of the first segment's generated inputs
	// (payloads, offsets, picks): equal seeds give equal digests.
	InputDigest string                 `json:"input_digest"`
	Traced      bool                   `json:"traced"`
	Segments    int                    `json:"segments"`
	Ops         int                    `json:"ops"`
	FailedOps   int                    `json:"failed_ops"`
	WallS       float64                `json:"wall_s"`
	TimedS      float64                `json:"timed_s_per_segment"`
	PeakRSSMiB  float64                `json:"peak_rss_mib"`
	Metrics     map[string]metricValue `json:"metrics"`
	// PerSegment keeps the per-segment values the metrics summarise, in
	// segment order.
	PerSegment map[string][]float64   `json:"per_segment"`
	Layers     map[string]metricValue `json:"layers,omitempty"`
	Account    map[string]float64     `json:"account,omitempty"`
}

// runOpts says how long a run lasts. minPlain and minTraced are the
// fewest segments of each kind it reports from whatever the budget: a
// median needs something to be the median of.
type runOpts struct {
	budget              float64 // seconds
	traced              bool
	traceOut            string
	minPlain, minTraced int
	hooks               *testHooks
}

// runWorkload runs fixed-work segments of p until the time budget is
// spent and summarises them. A traced run alternates untraced and
// traced segments, so the end-to-end numbers still come from untraced
// ones and the two kinds see the same machine.
func runWorkload(p params, seed int64, o runOpts) (runResult, error) {
	start := time.Now()
	var plain, spied []*segment
	for i := 0; ; i++ {
		var tr *tracer
		if o.traced && i%2 == 1 {
			tr = newTracer()
		}
		seg, err := runSegment(p, seed, i, tr, o.hooks)
		if err != nil {
			return runResult{}, err
		}
		if tr == nil {
			plain = append(plain, seg)
		} else {
			if o.traceOut != "" {
				if err := tr.writeSpans(o.traceOut, p.Name, i); err != nil {
					return runResult{}, err
				}
			}
			seg.tr = nil // drop the spans; the layers are what is kept
			spied = append(spied, seg)
		}
		elapsed := time.Since(start).Seconds()
		enough := len(plain) >= o.minPlain && (!o.traced || len(spied) >= o.minTraced)
		if enough && elapsed+elapsed/float64(i+1) > o.budget {
			break
		}
	}
	res := summarise(p, plain)
	res.Seed, res.Traced = seed, o.traced
	res.InputDigest = fmt.Sprintf("%08x", plain[0].inputSum)
	res.WallS = time.Since(start).Seconds()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if o.traced {
		res.layers(plain, spied)
	}
	return res, nil
}

// summarise computes the end-to-end metrics from the untraced
// segments. Interference in a shared sandbox is one-sided (it only
// ever slows a segment down) and comes in bursts of seconds, so a
// timing metric is the quartile on the good side of its per-segment
// values: the third quartile of the throughputs, the first quartile of
// the times. A run with half its segments disturbed still reports the
// undisturbed speed, where a median would report a mixture. The two
// ratios, which interference does not push one way, are medians, and so
// is setup_s.
func summarise(p params, segs []*segment) runResult {
	res := runResult{Workload: p.Name, Segments: len(segs), Metrics: map[string]metricValue{}}
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	calls := map[string]int{}
	for _, s := range segs {
		res.Ops += s.ops
		res.FailedOps += s.failed
		moved := float64(s.writeBytes + s.readBytes)
		add("setup_s", s.setup.Seconds())
		add("write_mibps", float64(s.writeBytes)/mib/s.write.wall.Seconds())
		add("read_mibps", float64(s.readBytes)/mib/s.read.wall.Seconds())
		add("write_p50_ms", median(durationsMs(s.writeLat)))
		add("read_p50_ms", median(durationsMs(s.readLat)))
		add("cpu_s_per_gib", (s.write.cpu+s.read.cpu).Seconds()/(moved/(1<<30)))
		add("alloc_bytes_per_user_byte", float64(s.write.alloc+s.read.alloc)/moved)
		add("stored_bytes_per_user_byte", float64(s.stored)/float64(s.preloadBytes+s.writeBytes))
		add("timed_s", s.timedWall().Seconds())
		calls["write_p50_ms"] += len(s.writeLat)
		calls["read_p50_ms"] += len(s.readLat)
	}
	res.TimedS = median(per["timed_s"])
	res.PerSegment = per
	for _, d := range endToEnd {
		q1, q2, q3 := quartiles(per[d.Name])
		mv := metricValue{Value: q2, Unit: d.Unit, Samples: len(segs), Calls: calls[d.Name]}
		switch d.Name {
		case "write_mibps", "read_mibps":
			mv.Value = q3
		case "write_p50_ms", "read_p50_ms", "cpu_s_per_gib":
			mv.Value = q1
		}
		res.Metrics[d.Name] = mv
	}
	return res
}

// layers fills in the per-layer metrics of a traced run. Timings are
// medians over the traced segments. Exact counts come from the first
// traced segment alone: its inputs depend only on the seed, not on how
// many segments the time budget allowed.
func (res *runResult) layers(plain, spied []*segment) {
	res.Layers = map[string]metricValue{}
	for _, d := range perLayer {
		var vals []float64
		for _, s := range spied {
			if v, ok := s.layer[d.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
			if slices.Contains(exactCounts, d.Name) {
				break
			}
		}
		mv := metricValue{Unit: d.Unit, Samples: len(vals), NA: len(vals) == 0}
		if len(vals) > 0 {
			mv.Value = median(vals)
		}
		res.Layers[d.Name] = mv
	}
	// Tracing overhead: the same fixed work, traced against untraced.
	wall := func(segs []*segment) float64 {
		var v []float64
		for _, s := range segs {
			v = append(v, s.timedWall().Seconds())
		}
		return median(v)
	}
	res.Layers["trace.overhead_ratio"] = metricValue{Value: wall(spied) / wall(plain), Unit: "ratio", Samples: len(spied)}
	res.Account = spied[0].account
}

// print writes the human-readable table and, as the last line, the
// machine-readable result: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func (res runResult) print(w io.Writer) {
	fmt.Fprintf(w, "# %s  seed=%d  segments=%d  timed=%.2fs/segment  wall=%.1fs  clock=wall\n",
		res.Workload, res.Seed, res.Segments, res.TimedS, res.WallS)
	defs, vals := endToEnd, res.Metrics
	if res.Traced {
		defs, vals = perLayer, res.Layers
	}
	line := map[string]map[string]any{}
	for _, d := range defs {
		v := vals[d.Name]
		if v.NA {
			fmt.Fprintf(w, "%-36s %14s %-7s\n", d.Name, "n/a", d.Unit)
		} else if v.Calls > 0 {
			fmt.Fprintf(w, "%-36s %14.6g %-7s (n=%d segments, %d calls)\n", d.Name, v.Value, d.Unit, v.Samples, v.Calls)
		} else {
			fmt.Fprintf(w, "%-36s %14.6g %-7s (n=%d)\n", d.Name, v.Value, d.Unit, v.Samples)
		}
		line[d.Name] = map[string]any{"value": v.Value, "unit": d.Unit}
	}
	for _, k := range slices.Sorted(maps.Keys(res.Account)) {
		fmt.Fprintf(w, "account.%-28s %14.6g ms/op\n", k, res.Account[k])
	}
	fmt.Fprintf(w, "%-36s %14d\n%-36s %14d\n", "ops", res.Ops, "failed_ops", res.FailedOps)
	last, _ := json.Marshal(map[string]any{
		"correct": true, "attempted": res.Ops, "failed": res.FailedOps, "metrics": line,
	})
	fmt.Fprintf(w, "%s\n", last)
}
