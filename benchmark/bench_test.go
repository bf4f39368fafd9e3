package main

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// None of these tests asserts on wall-clock time: they check that the
// harness verifies bytes, names its metrics as BENCHMARK.json does,
// counts exactly, and accounts for failures.

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var got []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, p := range frozen() {
		want = append(want, p.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program runs %v", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: BENCHMARK.json has %d metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := (metricDef{m.Name, m.Unit, m.Better}); d != endToEnd[i] {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %v, the program reports %v", i, d, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: BENCHMARK.json has %d metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %v, the program reports %v", i, m, perLayer[i])
		}
	}
	for _, n := range append(append(got, metricNames(endToEnd)...), metricNames(perLayer)...) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

// tinyRun is one untraced and one traced segment of the shrunken
// workload.
func tinyRun(t *testing.T, p params, seed int64) runResult {
	t.Helper()
	res, err := runWorkload(tiny(p), seed, runOpts{traced: true, minPlain: 1, minTraced: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsVerifyNameAndCountExactly(t *testing.T) {
	wantStored := map[string]float64{wlTile: 1, wlCkpt: 1, wlCoded: 1.5, wlSubarray: 3}
	for _, p := range frozen() {
		t.Run(p.Name, func(t *testing.T) {
			a, b := tinyRun(t, p, 7), tinyRun(t, p, 7)
			other, err := runWorkload(tiny(p), 8, runOpts{minPlain: 1})
			if err != nil {
				t.Fatal(err)
			}
			if a.Ops == 0 || a.FailedOps != 0 {
				t.Errorf("ops %d, failed %d; want some and none", a.Ops, a.FailedOps)
			}
			if len(a.Metrics) != len(endToEnd) {
				t.Errorf("reported %d end-to-end metrics, want %d", len(a.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := a.Metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			if len(a.Layers) != len(perLayer) {
				t.Errorf("reported %d per-layer metrics, want %d", len(a.Layers), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := a.Layers[d.Name]; !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v, want a finite value or n/a in %s", d.Name, v, d.Unit)
				}
			}
			if got := a.Metrics["stored_bytes_per_user_byte"].Value; math.Abs(got-wantStored[p.Name]) > 1e-9 {
				t.Errorf("stored_bytes_per_user_byte = %v, want %v", got, wantStored[p.Name])
			}
			for _, n := range exactCounts {
				if !exactOn(p.Name, n) {
					continue
				}
				if a.Layers[n] != b.Layers[n] {
					t.Errorf("%s: %+v then %+v with the same seed; exact counts must repeat", n, a.Layers[n], b.Layers[n])
				}
			}
			if a.InputDigest != b.InputDigest {
				t.Errorf("one seed generated two inputs: %s, %s", a.InputDigest, b.InputDigest)
			}
			if a.InputDigest == other.InputDigest {
				t.Errorf("seeds 7 and 8 generated the same inputs (%s)", a.InputDigest)
			}
		})
	}
}

// A layer that a workload bypasses must say n/a, and one it runs must
// not.
func TestLayersReportNotApplicable(t *testing.T) {
	res := tinyRun(t, frozen()[2], 3) // coded_degraded_restore
	for n, wantNA := range map[string]bool{
		"mpiio.write_self_us_per_op": true, "provider.cache_hit_ratio": true, "core.reap_pass_s": true,
		"chunk.rs_encode_mibps": false, "chunk.rs_share_of_read": false, "provider.degraded_read_ratio": false,
	} {
		if res.Layers[n].NA != wantNA {
			t.Errorf("%s: n/a = %v, want %v", n, res.Layers[n].NA, wantNA)
		}
	}
	if r := res.Layers["provider.degraded_read_ratio"].Value; r <= 0 {
		t.Errorf("degraded_read_ratio = %v with a failure domain down, want > 0", r)
	}
}

// With a chunk.FaultStore failing a seeded subset of puts at R=1 the
// harness must finish, count exactly the injected failures, leave their
// bytes out of the throughput, and still verify every byte it reads.
func TestFailureAccounting(t *testing.T) {
	p := tiny(frozen()[1])
	// Buffered writes retire a failed ticket with a tombstone, which
	// keeps later snapshots readable; see the README on why the
	// pipelined path is not used here.
	p.Pipelined, p.WriteEpochs = false, 8
	rng := rand.New(rand.NewSource(11))
	hooks := &testHooks{failPutEpochs: map[int]bool{}}
	for len(hooks.failPutEpochs) < 3 {
		hooks.failPutEpochs[1+rng.Intn(p.WriteEpochs)] = true
	}
	s, err := runSegment(p, 11, 0, nil, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if s.failed != len(hooks.failPutEpochs) {
		t.Errorf("failed_ops = %d, want the %d injected", s.failed, len(hooks.failPutEpochs))
	}
	writes := ranks*p.WriteEpochs - s.failed
	if want := int64(writes) * p.Ckpt.BytesPerRank(); s.writeBytes != want {
		t.Errorf("write bytes = %d, want %d: failed writes must not count", s.writeBytes, want)
	}
	if len(s.writeLat) != writes {
		t.Errorf("%d write latencies for %d successful writes", len(s.writeLat), writes)
	}
	if want := ranks * (p.WriteEpochs + p.ReadEpochs); s.ops != want {
		t.Errorf("ops = %d, want %d", s.ops, want)
	}
}

// A read-back that differs by one byte must end the run with an error,
// which main turns into a non-zero exit.
func TestCorruptedReadBackFails(t *testing.T) {
	for _, p := range frozen() {
		hooks := &testHooks{tamper: func(b []byte) { b[len(b)/2] ^= 1 }}
		_, err := runSegment(tiny(p), 5, 0, nil, hooks)
		if !errors.Is(err, errMismatch) {
			t.Errorf("%s: corrupted read-back returned %v, want a byte mismatch", p.Name, err)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no_such_workload"}, &out, &errOut); code == 0 {
		t.Error("a failed run exited 0")
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(read, write, setup []float64, failed int) *ledger {
		l := newLedger(1, 1)
		for i := range read {
			l.Runs = append(l.Runs, runResult{Workload: wlCkpt, Ops: 100, FailedOps: failed, Metrics: map[string]metricValue{
				"read_mibps": {Value: read[i]}, "write_mibps": {Value: write[i]}, "setup_s": {Value: setup[i]},
			}})
		}
		return l
	}
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		path := filepath.Join(dir, name)
		if err := l.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", mk([]float64{100, 101, 99}, []float64{50, 51, 49}, []float64{1, 2, 3}, 0))
	b := write("b.json", mk([]float64{50, 51, 49}, []float64{100, 101, 99}, []float64{1, 2, 3}, 0))
	var out bytes.Buffer
	regressed, err := compareLedgers(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("read_mibps halved and nothing regressed")
	}
	for _, want := range []string{"read_mibps", "regressed", "improved", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if regressed, _ = compareLedgers(&out, a, a); regressed {
		t.Errorf("a ledger regressed against itself:\n%s", out.String())
	}
	c := write("c.json", mk([]float64{100, 101, 99}, []float64{50, 51, 49}, []float64{1, 2, 3}, 1))
	if regressed, _ = compareLedgers(&out, a, c); !regressed {
		t.Error("a higher failed_ops/ops ratio did not regress")
	}
}
