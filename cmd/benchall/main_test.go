package main

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// An unknown -only name must fail before anything runs, and the error
// must teach the valid names (derived from the experiment table, so
// E16 is in and the never-assigned E15 is out).
func TestSelectRunnersUnknownFailsFast(t *testing.T) {
	selected, err := selectExperiments("E1,E99,E14")
	if err == nil {
		t.Fatal("selectExperiments accepted unknown experiment E99")
	}
	if selected != nil {
		t.Fatalf("selectExperiments returned %d experiments alongside the error; want none", len(selected))
	}
	msg := err.Error()
	if !strings.Contains(msg, "E99") {
		t.Errorf("error %q does not name the offending experiment", msg)
	}
	if want := "E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13, E14, E16, E18"; !strings.Contains(msg, "(valid: "+want+")") {
		t.Errorf("error %q does not list exactly %s", msg, want)
	}
}

func TestSelectRunnersValid(t *testing.T) {
	selected, err := selectExperiments("E16, E1")
	if err != nil {
		t.Fatalf("selectExperiments: %v", err)
	}
	if len(selected) != 2 || selected[0].Name != "E16" || selected[1].Name != "E1" {
		t.Fatalf("selected %+v, want E16 then E1", selected)
	}
}

// The table is in numeric order with no name twice, and the headline
// experiment is one of its entries.
func TestExperimentNamesSortedNumerically(t *testing.T) {
	names := experiments.Names()
	nums := make([]int, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		v, err := strconv.Atoi(strings.TrimPrefix(n, "E"))
		if err != nil {
			t.Fatalf("name %q is not E<number>", n)
		}
		if seen[n] {
			t.Fatalf("experiment %s is in the table twice", n)
		}
		seen[n] = true
		nums = append(nums, v)
	}
	if !sort.IntsAreSorted(nums) {
		t.Errorf("names not in numeric order: %v", names)
	}
	if !seen[experiments.Headline] {
		t.Errorf("headline experiment %s is not in the table", experiments.Headline)
	}
}
