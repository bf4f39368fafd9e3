package bench

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// lossCase is one row of the loss scenario's table: a cell of RunLoss
// and what must hold of its result. Rows are grouped under the test
// function that owns them (the experiment whose projection they
// check), so each experiment still passes or fails under its own name.
type lossCase struct {
	test    string // owning test function
	name    string
	env     cluster.Env
	spec    workload.OverlapSpec
	opts    LossOptions
	wantErr string // non-empty: the run must be refused, and this is why
	// check holds the row's assertions; earlier holds the results of
	// the rows before it in the same test, by name.
	check func(t *testing.T, res LossResult, earlier map[string]LossResult)
}

func withProviders(n int) cluster.Env {
	e := cluster.Default()
	e.Providers = n
	return e
}

var (
	replicaSpec = workload.OverlapSpec{Clients: 4, Regions: 8, RegionSize: 8 << 10, OverlapFraction: 0.75}
	healSpec    = workload.OverlapSpec{Clients: 4, Regions: 16, RegionSize: 8 << 10, OverlapFraction: 0.5}
	codedSpec   = workload.OverlapSpec{Clients: 4, Regions: 4, RegionSize: 64 << 10, OverlapFraction: 0.5}
	tinySpec    = workload.OverlapSpec{Clients: 2, Regions: 4, RegionSize: 4 << 10, OverlapFraction: 0.5}
)

var lossCases = []lossCase{
	// E9: R=2 survives the mid-run kill — degraded reads succeed and
	// repair restores every degraded chunk.
	{
		test: "TestRunReplicated", name: "R=2", env: cluster.Default(), spec: replicaSpec,
		opts: LossOptions{Replicas: 2, HealthyReads: 2, DegradedReads: 2},
		check: func(t *testing.T, res LossResult, _ map[string]LossResult) {
			if res.Mode != "R=2" || res.Clients != 4 {
				t.Fatalf("result header %+v", res)
			}
			if res.WriteMBps <= 0 || res.ReadMBps <= 0 {
				t.Fatalf("throughput not measured: %+v", res)
			}
			if res.DegradedErr != nil {
				t.Fatalf("degraded reads failed at R=2: %v", res.DegradedErr)
			}
			if res.DegradedMBps <= 0 {
				t.Fatalf("degraded throughput not measured: %+v", res)
			}
			if res.Repair.Degraded == 0 || res.Repair.Repaired != res.Repair.Degraded || res.Repair.Lost > 0 {
				t.Fatalf("repair stats %+v", res.Repair)
			}
		},
	},
	// Unreplicated, losing a provider loses data: the degraded read
	// phase must fail rather than silently serve holes.
	{
		test: "TestRunReplicatedR1LosesData", name: "R=1", env: cluster.Default(), spec: replicaSpec,
		opts: LossOptions{Replicas: 1, HealthyReads: 2, DegradedReads: 2},
		check: func(t *testing.T, res LossResult, _ map[string]LossResult) {
			if res.DegradedErr == nil {
				t.Fatal("R=1 degraded reads succeeded; the kill exercised nothing")
			}
			if res.Lost == 0 || res.Repair.Lost == 0 {
				t.Fatalf("R=1 accounting (%d) or repair (%+v) found no lost chunks", res.Lost, res.Repair)
			}
		},
	},
	{
		test: "TestRunReplicatedValidation", name: "invalid spec", env: cluster.Default(),
		wantErr: "invalid spec must fail",
	},
	{
		test: "TestRunReplicatedValidation", name: "R above providers", env: withProviders(2),
		spec:    workload.OverlapSpec{Clients: 2, Regions: 2, RegionSize: 1 << 10, OverlapFraction: 0.5},
		opts:    LossOptions{Replicas: 5},
		wantErr: "R above provider count must fail",
	},

	// E10 unmetered: both modes converge, the kill degrades something,
	// and read-repair pre-feeds the queue and detects the loss before
	// the first tick where scrub-only needs a probe to find it.
	{
		test: "TestRunSelfHeal", name: "scrub only", env: cluster.Default(), spec: healSpec,
		opts: LossOptions{Replicas: 2, SelfHeal: true},
		check: func(t *testing.T, res LossResult, _ map[string]LossResult) {
			if res.Degraded == 0 {
				t.Fatalf("kill degraded nothing: %+v", res)
			}
			if res.HealTicks <= 0 || res.DetectTicks < 1 {
				t.Fatalf("no convergence, or detection without a probe: %+v", res)
			}
			if res.Prefed != 0 {
				t.Fatalf("scrub-only mode pre-fed %d chunks", res.Prefed)
			}
		},
	},
	{
		test: "TestRunSelfHeal", name: "read-repair", env: cluster.Default(), spec: healSpec,
		opts: LossOptions{Replicas: 2, SelfHeal: true, DegradedReads: 1},
		check: func(t *testing.T, res LossResult, earlier map[string]LossResult) {
			if res.Degraded == 0 {
				t.Fatalf("kill degraded nothing: %+v", res)
			}
			if res.HealTicks <= 0 || res.DetectTicks != 0 {
				t.Fatalf("no convergence, or the failed reads did not trip detection before tick 1: %+v", res)
			}
			if res.Prefed == 0 {
				t.Fatalf("read-repair phase fed no chunks: %+v", res)
			}
			// Read-repair must never make healing slower.
			if scrub := earlier["scrub only"]; res.HealTicks > scrub.HealTicks {
				t.Fatalf("read-repair healed in %d ticks, scrub-only in %d — read-repair made it worse", res.HealTicks, scrub.HealTicks)
			}
		},
	},
	// R=1 has nothing to heal from.
	{
		test: "TestRunSelfHealValidation", name: "R=1", env: cluster.Default(), spec: tinySpec,
		opts: LossOptions{Replicas: 1, SelfHeal: true}, wantErr: "self-heal accepted R=1",
	},

	// E12 unmetered: with domain-spread placement the loss of a whole
	// domain loses NOTHING and heals; the flat control at R=2
	// demonstrably loses chunks — the contrast the experiment exists
	// to show.
	{
		test: "TestRunDomainLoss", name: "spread", env: cluster.Default(), spec: healSpec,
		opts: LossOptions{Replicas: 2, Domains: 4, Spread: true, SelfHeal: true},
		check: func(t *testing.T, res LossResult, _ map[string]LossResult) {
			if res.Lost != 0 || res.SurvivedPct != 100 {
				t.Fatalf("spread placement lost data to a single-domain kill: %+v", res)
			}
			if res.Degraded == 0 || res.Killed != 2 {
				t.Fatalf("domain kill degraded nothing: %+v", res)
			}
			if res.HealTicks <= 0 || res.DetectTicks <= 0 {
				t.Fatalf("spread mode did not detect+heal: %+v", res)
			}
		},
	},
	{
		test: "TestRunDomainLoss", name: "flat", env: cluster.Default(), spec: healSpec,
		opts: LossOptions{Replicas: 2, Domains: 4, SelfHeal: true},
		check: func(t *testing.T, res LossResult, earlier map[string]LossResult) {
			if res.Lost == 0 {
				t.Fatalf("flat control lost nothing — the exposure E12 contrasts against did not occur: %+v", res)
			}
			if res.HealTicks != NotConverged || res.DetectTicks != NotConverged {
				t.Fatalf("flat control with lost chunks reported a heal time: %+v", res)
			}
			if spread := earlier["spread"]; res.Killed != spread.Killed || res.Chunks != spread.Chunks {
				t.Fatalf("control differs from the spread run in more than placement: %+v vs %+v", res, spread)
			}
		},
	},
	// R=1 has no correlated-loss story, and spread needs domains to
	// spread across.
	{
		test: "TestRunDomainLossValidation", name: "R=1", env: cluster.Default(), spec: tinySpec,
		opts: LossOptions{Replicas: 1, Domains: 4, Spread: true, SelfHeal: true}, wantErr: "domain loss accepted R=1",
	},
	{
		test: "TestRunDomainLossValidation", name: "spread without domains", env: cluster.Default(), spec: tinySpec,
		opts: LossOptions{Replicas: 2, Spread: true}, wantErr: "Spread accepted on a flat pool",
	},

	// E18 unmetered: both placement modes survive a whole-domain kill
	// with zero loss, and the storage columns land at their analytic
	// values — (k+m)/k for rs-4+2, R for the replicated control. The
	// gap between those two numbers is the experiment.
	{
		test: "TestRunCoded", name: "rs-4+2", env: withProviders(12), spec: codedSpec,
		opts: LossOptions{Coding: "rs-4+2", Domains: 6, Spread: true, HealthyReads: 2, DegradedReads: 2},
		check: func(t *testing.T, res LossResult, _ map[string]LossResult) {
			if res.Lost != 0 || res.Degraded == 0 {
				t.Fatalf("coded placement lost data to (or never felt) a single-domain kill: %+v", res)
			}
			if res.StorageX > 1.6 || res.StorageX < 1.4 {
				t.Fatalf("rs-4+2 storage overhead %.2fx, want ~1.5x", res.StorageX)
			}
			if res.Repair.Failed > 0 || res.Repair.Lost > 0 {
				t.Fatalf("coded repair after domain kill: %+v", res.Repair)
			}
		},
	},
	{
		test: "TestRunCoded", name: "R=3", env: withProviders(12), spec: codedSpec,
		opts: LossOptions{Replicas: 3, Domains: 6, Spread: true, HealthyReads: 2, DegradedReads: 2},
		check: func(t *testing.T, res LossResult, _ map[string]LossResult) {
			if res.Lost != 0 {
				t.Fatalf("replicated control lost data: %+v", res)
			}
			if res.StorageX < 2.9 {
				t.Fatalf("R=3 storage overhead %.2fx, want ~3x", res.StorageX)
			}
		},
	},
	// A bad coding spec and a replica-less control must both fail,
	// before any cluster is built.
	{
		test: "TestRunCodedValidation", name: "rs-0+2", env: cluster.Default(), spec: tinySpec,
		opts: LossOptions{Coding: "rs-0+2", Domains: 6, Spread: true}, wantErr: "accepted rs-0+2",
	},
	{
		test: "TestRunCodedValidation", name: "control at R=1", env: cluster.Default(), spec: tinySpec,
		opts: LossOptions{Replicas: 1, Domains: 6, Spread: true}, wantErr: "accepted a replicated control at R=1",
	},
}

// runLossCases runs the table rows owned by the calling test.
func runLossCases(t *testing.T) {
	earlier := map[string]LossResult{}
	ran := 0
	for _, c := range lossCases {
		if c.test != t.Name() {
			continue
		}
		ran++
		t.Run(c.name, func(t *testing.T) {
			res, err := RunLoss(c.env, c.spec, c.opts)
			if c.wantErr != "" {
				if err == nil {
					t.Fatal(c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, res, earlier)
			earlier[c.name] = res
		})
	}
	if ran == 0 {
		t.Fatalf("no loss-scenario rows are owned by %s", t.Name())
	}
}

func TestRunReplicated(t *testing.T)            { runLossCases(t) }
func TestRunReplicatedR1LosesData(t *testing.T) { runLossCases(t) }
func TestRunReplicatedValidation(t *testing.T)  { runLossCases(t) }
func TestRunSelfHeal(t *testing.T)              { runLossCases(t) }
func TestRunSelfHealValidation(t *testing.T)    { runLossCases(t) }
func TestRunDomainLoss(t *testing.T)            { runLossCases(t) }
func TestRunDomainLossValidation(t *testing.T)  { runLossCases(t) }
func TestRunCoded(t *testing.T)                 { runLossCases(t) }
func TestRunCodedValidation(t *testing.T)       { runLossCases(t) }
