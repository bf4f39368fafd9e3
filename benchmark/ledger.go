package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ledger is a result file: every run one invocation made, with enough
// provenance that an entry can never be mistaken for one of the
// metered (virtual-time) E1-E18 numbers.
type ledger struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runResult `json:"runs"`
}

type provenance struct {
	Clock      string   `json:"clock"`
	GitSHA     string   `json:"git_sha"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Ranks      int      `json:"ranks"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds_per_workload"`
	When       string   `json:"when"`
	Params     []params `json:"params"`
	Claim      *string  `json:"claim"`
}

func newLedger(seed int64, seconds float64) *ledger {
	sha := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return &ledger{Provenance: provenance{
		Clock: "wall", GitSHA: sha, GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Ranks: ranks, Seed: seed, Seconds: seconds,
		When: time.Now().UTC().Format(time.RFC3339), Params: frozen(),
	}}
}

func (l *ledger) write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// series collects one end-to-end metric's values over a ledger's
// untraced runs of one workload.
func (l *ledger) series(workload, metric string) []float64 {
	var v []float64
	for _, r := range l.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			v = append(v, m.Value)
		}
	}
	return v
}

func (l *ledger) failureRatio(workload string) float64 {
	ops, failed := 0, 0
	for _, r := range l.Runs {
		if r.Workload == workload {
			ops += r.Ops
			failed += r.FailedOps
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}

// worse is by what share of base the value is worse than base, in the
// metric's own direction; negative when it is better.
func worse(better string, base, value float64) float64 {
	if better == "higher" {
		return (base - value) / base
	}
	return (value - base) / base
}

// compareLedgers prints, per workload and end-to-end metric, both
// sides' medians and quartiles, the ratio B/A with its base, and a
// verdict from the bounds in BENCHMARK.json. It reports whether
// anything regressed or more operations failed.
func compareLedgers(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	spec, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", pathA, a.Provenance.GitSHA, pathB, b.Provenance.GitSHA)
	fmt.Fprintf(w, "%-30s %-27s %11s %21s %11s %21s %14s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A (base A)", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.series(wl.Name, m.Name), b.series(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			delta := worse(m.Better, a2, b2)
			verdict := "unchanged"
			switch {
			case (a3-a1)/a2 > m.Bound:
				verdict = "unresolved"
			case delta > m.Bound:
				verdict = "regressed"
				regressed = true
			case delta < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-30s %-27s %11.5g %10.5g..%-9.5g %11.5g %10.5g..%-9.5g %8.3f of %-5.4g %5.0f%%  %s\n",
				wl.Name, m.Name, a2, a1, a3, b2, b1, b3, b2/a2, a2, m.Bound*100, verdict)
		}
		if fa, fb := a.failureRatio(wl.Name), b.failureRatio(wl.Name); fb > fa {
			fmt.Fprintf(w, "%-30s failed_ops/ops rose from %.4g to %.4g: regressed\n", wl.Name, fa, fb)
			regressed = true
		}
	}
	return regressed, nil
}

// aaTable prints the A/A evidence from a ledger of repeated runs of
// one build: per workload and metric, the spread of all runs (distance
// between the quartiles as a share of the median) and the largest
// difference between the medians of the first and second half of the
// runs, both against the metric's bound.
func aaTable(w io.Writer, l *ledger) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nA/A: first half of the runs against the second half\n%-30s %-27s %4s %11s %9s %9s %6s  %s\n",
		"workload", "metric", "runs", "median", "spread", "|dmedian|", "bound", "inside")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			v := l.series(wl.Name, m.Name)
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			half := len(v) / 2
			_, ma, _ := quartiles(v[:half])
			_, mb, _ := quartiles(v[half:])
			d := (mb - ma) / ma
			if d < 0 {
				d = -d
			}
			inside := "yes"
			if d > m.Bound || (m.Name != "setup_s" && (q3-q1)/q2 > m.Bound) {
				inside = "NO"
			}
			fmt.Fprintf(w, "%-30s %-27s %4d %11.5g %8.2f%% %8.2f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(v), q2, (q3-q1)/q2*100, d*100, m.Bound*100, inside)
		}
	}
	return nil
}
