// Command benchall runs the experiment table (internal/experiments) on
// the metered cost model and prints each experiment's tables: the
// paper's evaluation (E1–E6: scalability of atomic overlapped
// non-contiguous writes, MPI-tile-IO, the region-count, overlap and
// striping sweeps, and the headline throughput ratio) and the
// follow-on scenarios grown on the same backend. The table is the
// list: each entry's comment there says what it measures, and
// `benchall -only ?` prints the valid names. Expect a full run to take
// a few minutes; -quick shrinks every matrix for smoke runs; -only E14
// (comma-separated names) selects a subset; -headline is -only E6.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "smaller matrix for a fast smoke run")
	headline := flag.Bool("headline", false, "run only "+experiments.Headline+" (headline ratio)")
	only := flag.String("only", "", "comma-separated experiment names to run (e.g. E14 or E1,E6); empty = all")
	flag.Parse()

	selected := experiments.All
	if *headline && *only == "" {
		*only = experiments.Headline
	}
	if *only != "" {
		var err error
		if selected, err = selectExperiments(*only); err != nil {
			die(err)
		}
	}
	start := time.Now()
	for _, e := range selected {
		if err := e.Run(os.Stdout, *quick); err != nil {
			die(err)
		}
	}
	fmt.Printf("\ntotal benchmark wall time: %.1fs\n", time.Since(start).Seconds())
}

// selectExperiments resolves a -only selector, validating every name
// before any experiment runs: a typo fails fast with the full list of
// valid names instead of silently skipping (or worse, failing only
// after the experiments named before it already ran).
func selectExperiments(only string) ([]experiments.Experiment, error) {
	var selected []experiments.Experiment
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		e, ok := experiments.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experiments.Names(), ", "))
		}
		selected = append(selected, e)
	}
	return selected, nil
}

func die(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
