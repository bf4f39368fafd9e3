package provider

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/chunk"
)

// healthRig is a monitor over a small pool with a manual clock and a
// scriptable probe.
type healthRig struct {
	m       *Manager
	h       *HealthMonitor
	now     time.Time
	probeOK map[ID]bool
}

func newHealthRig(t *testing.T, providers int, cfg HealthConfig) *healthRig {
	t.Helper()
	m, _ := testPool(providers, 0, false)
	rig := &healthRig{
		m:       m,
		h:       NewHealthMonitor(m, cfg),
		now:     time.Unix(0, 0),
		probeOK: make(map[ID]bool),
	}
	rig.h.SetClock(func() time.Time { return rig.now })
	rig.h.probe = func(id ID) error {
		if rig.probeOK[id] {
			return nil
		}
		return chunk.ErrDown
	}
	return rig
}

func (r *healthRig) advance(d time.Duration) { r.now = r.now.Add(d) }

// TestHealthThresholdProperty: across random ok/fail sequences, a
// provider is never marked down with fewer than Threshold CONSECUTIVE
// failures, and always marked down once they occur.
func TestHealthThresholdProperty(t *testing.T) {
	for _, threshold := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("threshold=%d", threshold), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rig := newHealthRig(t, 1, HealthConfig{Threshold: threshold})
				rng := rand.New(rand.NewSource(seed))
				consec := 0
				for step := 0; step < 200; step++ {
					if rng.Intn(2) == 0 {
						rig.h.ReportSuccess(0)
						consec = 0
					} else {
						rig.h.ReportFailure(0)
						consec++
					}
					down := rig.h.State(0) == Down
					if down && consec < threshold {
						t.Fatalf("seed %d step %d: down after %d consecutive failures (threshold %d)",
							seed, step, consec, threshold)
					}
					if !down && consec >= threshold {
						t.Fatalf("seed %d step %d: still %s after %d consecutive failures (threshold %d)",
							seed, step, rig.h.State(0), consec, threshold)
					}
					if down {
						break // Down is absorbing for the report stream
					}
				}
			}
		})
	}
}

// TestHealthFlappingNeverTrips: strict alternation ok/fail — the
// classic flapping provider — must never reach Down for any threshold
// >= 2, because a success decays the consecutive-failure count.
func TestHealthFlappingNeverTrips(t *testing.T) {
	rig := newHealthRig(t, 1, HealthConfig{Threshold: 2})
	for i := 0; i < 1000; i++ {
		rig.h.ReportFailure(0)
		if st := rig.h.State(0); st == Down {
			t.Fatalf("iteration %d: flapping provider marked down", i)
		}
		rig.h.ReportSuccess(0)
	}
	if st := rig.h.State(0); st != Live {
		t.Fatalf("flapping provider ended %s, want live", st)
	}
}

// TestHealthProbationTiming: a down provider is re-probed only after
// the probation interval, every time, and revives only after
// probeSuccesses consecutive good probes — so down/live oscillation is
// rate-limited by the probation clock.
func TestHealthProbationTiming(t *testing.T) {
	cfg := HealthConfig{Threshold: 2, Probation: 10 * time.Second}
	rig := newHealthRig(t, 1, cfg)
	rig.h.ReportFailure(0)
	rig.h.ReportFailure(0)
	if st := rig.h.State(0); st != Down {
		t.Fatalf("state after threshold failures = %s", st)
	}
	if !rig.m.Providers()[0].Down() {
		t.Fatal("monitor did not flip the manager's down flag")
	}

	// Before probation elapses, ticks must not probe (store would
	// answer — it is only flag-down, not store-down — so an early probe
	// would start reviving).
	rig.probeOK[0] = true
	for i := 0; i < 9; i++ {
		rig.advance(time.Second)
		rig.h.Tick()
		if st := rig.h.State(0); st != Down {
			t.Fatalf("probed %ds into a %s probation (state %s)", i+1, cfg.Probation, st)
		}
	}
	// Probation elapses: first good probe moves to Probation, second
	// revives.
	rig.advance(time.Second)
	rig.h.Tick()
	if st := rig.h.State(0); st != Probation {
		t.Fatalf("state after first post-probation probe = %s, want probation", st)
	}
	rig.h.Tick()
	if st := rig.h.State(0); st != Live {
		t.Fatalf("state after %d good probes = %s, want live", probeSuccesses, st)
	}
	if rig.m.Providers()[0].Down() {
		t.Fatal("revival did not clear the manager's down flag")
	}
}

// TestHealthFailedProbeRestartsProbation: a failed probe sends the
// provider back to Down and restarts the full probation interval — the
// oscillation rate limit. A provider that keeps failing probes is
// probed at most once per probation interval.
func TestHealthFailedProbeRestartsProbation(t *testing.T) {
	cfg := HealthConfig{Threshold: 1, Probation: 10 * time.Second}
	rig := newHealthRig(t, 1, cfg)
	probes := 0
	rig.h.probe = func(ID) error { probes++; return chunk.ErrDown }
	rig.h.ReportFailure(0)

	// 100 virtual seconds of ticking at 1s: exactly 10 probes fit.
	for i := 0; i < 100; i++ {
		rig.advance(time.Second)
		rig.h.Tick()
	}
	if probes != 10 {
		t.Fatalf("%d probes in 100s with a 10s probation, want exactly 10", probes)
	}
	if st := rig.h.State(0); st != Down {
		t.Fatalf("state = %s, want down", st)
	}
}

// TestHealthMinOscillation: even with traffic actively flapping between
// heavy failure bursts and recoveries, two consecutive down->live
// transitions are separated by at least the probation interval.
func TestHealthMinOscillation(t *testing.T) {
	cfg := HealthConfig{Threshold: 2, Probation: 5 * time.Second}
	rig := newHealthRig(t, 1, cfg)
	rig.probeOK[0] = true
	rng := rand.New(rand.NewSource(42))
	var lastLive time.Time
	var revivals []time.Time
	wasDown := false
	for step := 0; step < 3000; step++ {
		rig.advance(250 * time.Millisecond)
		// Random traffic outcomes, heavily failure-biased so the
		// provider keeps getting knocked down.
		if rng.Intn(4) == 0 {
			rig.h.ReportSuccess(0)
		} else {
			rig.h.ReportFailure(0)
		}
		rig.h.Tick()
		down := rig.h.State(0) == Down || rig.h.State(0) == Probation
		if wasDown && !down {
			revivals = append(revivals, rig.now)
			if !lastLive.IsZero() && rig.now.Sub(lastLive) < cfg.Probation {
				t.Fatalf("step %d: revived %s after going down at %s — faster than probation %s",
					step, rig.now, lastLive, cfg.Probation)
			}
		}
		if !down {
			lastLive = rig.now
		}
		wasDown = down
	}
	if len(revivals) == 0 {
		t.Fatal("workload never produced a down->live transition; oscillation property untested")
	}
}

// TestHealthErrorClassification: not-found and already-exists are live
// answers, not machine failures.
func TestHealthErrorClassification(t *testing.T) {
	if CountsAsFailure(nil) {
		t.Fatal("nil error counted as failure")
	}
	for _, benign := range []error{chunk.ErrNotFound, fmt.Errorf("wrap: %w", chunk.ErrExists)} {
		if CountsAsFailure(benign) {
			t.Fatalf("%v counted as failure", benign)
		}
	}
	for _, fatal := range []error{chunk.ErrDown, chunk.ErrInjected, errors.New("connection refused")} {
		if !CountsAsFailure(fatal) {
			t.Fatalf("%v not counted as failure", fatal)
		}
	}
}

// TestHealthSnapshotAdminDown: an administratively downed provider
// (bsctl down) must show as down in the health snapshot even though
// the monitor does not own the transition — and the monitor must not
// revive it.
func TestHealthSnapshotAdminDown(t *testing.T) {
	rig := newHealthRig(t, 2, HealthConfig{Probation: time.Second})
	if err := rig.m.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	sts := rig.h.Snapshot()
	if len(sts) != 2 || sts[1].State != Down {
		t.Fatalf("snapshot = %+v, want provider 1 down", sts)
	}
	// Ticks far past probation: the monitor never saw provider 1 go
	// down, so it must leave the admin decision alone.
	rig.probeOK[1] = true
	for i := 0; i < 10; i++ {
		rig.advance(time.Minute)
		rig.h.Tick()
	}
	if !rig.m.Providers()[1].Down() {
		t.Fatal("monitor revived an administratively downed provider")
	}
}

// TestHealthAdminDownFirstNeverClaimed: when the operator downs a
// provider BEFORE the monitor's threshold trips (in-flight errors keep
// reporting), the monitor must not claim the flag — and must never
// revive it, even though probes would succeed.
func TestHealthAdminDownFirstNeverClaimed(t *testing.T) {
	cfg := HealthConfig{Threshold: 3, Probation: time.Second}
	rig := newHealthRig(t, 1, cfg)
	rig.probeOK[0] = true
	rig.h.ReportFailure(0)
	rig.h.ReportFailure(0)
	// Operator drains the machine just before the threshold-th report.
	if err := rig.m.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	rig.h.ReportFailure(0) // would have been the claiming transition
	for i := 0; i < 10; i++ {
		rig.advance(time.Minute)
		rig.h.Tick()
	}
	if !rig.m.Providers()[0].Down() {
		t.Fatal("monitor revived a provider the operator downed first")
	}
	if sts := rig.h.Snapshot(); sts[0].State != Down {
		t.Fatalf("snapshot must still show the admin-downed provider down: %+v", sts[0])
	}
}
