// Health monitoring: deducing provider down-ness from observed store
// errors instead of an operator running `bsctl down`.
//
// The HealthMonitor is a per-provider state machine fed by the Router's
// I/O outcomes (every replica store attempt reports success or failure)
// and by its own probation probes:
//
//	Live ──failure──▶ Suspect ──threshold consecutive failures──▶ Down
//	  ▲                  │success (decay: counter resets)
//	  └──────────────────┘
//	Down ──probation elapsed──▶ Probation ──probe ok ×K──▶ Live
//	                                 │probe fails
//	                                 └──▶ Down (probation restarts)
//
// Two properties keep the machine stable under flapping providers:
// a provider is never declared down by fewer than Threshold
// CONSECUTIVE failures (any success resets the count, so alternating
// ok/fail never trips it), and a down provider can only return to Live
// after sitting out the full Probation interval and then answering
// ProbeSuccesses consecutive probes — so down/live oscillation is rate
// limited by the probation clock, not by traffic.
//
// Time is injectable (SetClock) so torture tests drive the machine in
// virtual ticks; production uses time.Now.
package provider

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/chunk"
)

// HealthState is one provider's position in the detection state machine.
type HealthState int

// Health states. Suspect providers still serve traffic (they have
// failed recently but not often enough to be declared down).
const (
	Live HealthState = iota
	Suspect
	Down
	Probation
)

func (s HealthState) String() string {
	switch s {
	case Live:
		return "live"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Probation:
		return "probation"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// HealthConfig tunes the detection state machine. The zero value of
// each field selects its default.
type HealthConfig struct {
	// Threshold is the number of consecutive failures that marks a
	// provider down (default 3). A success resets the count.
	Threshold int
	// Probation is how long a down provider sits out before the monitor
	// probes it again (default 2s on the monitor's clock).
	Probation time.Duration
	// ProbeSuccesses is the number of consecutive successful probes a
	// provider in probation must answer to be marked live (default 2).
	ProbeSuccesses int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.Probation <= 0 {
		c.Probation = 2 * time.Second
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
	return c
}

// HealthStatus is the externally visible health record of one provider.
type HealthStatus struct {
	Provider  ID
	Domain    string // failure-domain label ("" on a flat pool)
	State     HealthState
	Consec    int   // consecutive failures observed (Live/Suspect)
	Failures  int64 // total failures reported
	Successes int64 // total successes reported
	DownSince time.Time
}

// healthEntry is the per-provider state.
type healthEntry struct {
	state     HealthState
	consec    int // consecutive failures while Live/Suspect
	probeOK   int // consecutive probe successes while in Probation
	failures  int64
	successes int64
	downSince time.Time
	// epoch is the manager's down-flag transition epoch recorded when
	// the monitor marked the provider down. If it has moved since, an
	// administrator touched the flag and the monitor cedes ownership:
	// it must not revive (or keep probing) a provider an operator
	// deliberately downed.
	epoch int64
}

// HealthMonitor deduces provider down-ness from the error stream the
// data path already produces. It owns the down flags it sets: a
// provider it marked down is revived only by its own probation probes,
// while administratively downed providers (Manager.SetDown from bsctl)
// are left alone.
type HealthMonitor struct {
	mgr *Manager
	cfg HealthConfig

	mu      sync.Mutex
	now     func() time.Time
	probe   func(ID) error
	entries map[ID]*healthEntry
}

// NewHealthMonitor attaches a monitor to the manager's provider pool.
func NewHealthMonitor(mgr *Manager, cfg HealthConfig) *HealthMonitor {
	h := &HealthMonitor{
		mgr:     mgr,
		cfg:     cfg.withDefaults(),
		now:     time.Now,
		entries: make(map[ID]*healthEntry),
	}
	h.probe = h.defaultProbe
	return h
}

// Config returns the effective (defaulted) configuration.
func (h *HealthMonitor) Config() HealthConfig { return h.cfg }

// SetClock substitutes the monitor's time source; torture tests use a
// manually advanced virtual clock.
func (h *HealthMonitor) SetClock(now func() time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.now = now
}

// defaultProbe asks the provider's store for the length of an arbitrary
// key: a dead machine errors (chunk.ErrDown, transport failure), a live
// one answers — chunk.ErrNotFound is a healthy answer.
func (h *HealthMonitor) defaultProbe(id ID) error {
	p := h.mgr.byID(id)
	if p == nil {
		return fmt.Errorf("provider: unknown provider %d", id)
	}
	_, err := p.Store().Len(chunk.Key{})
	if err != nil && !errors.Is(err, chunk.ErrNotFound) {
		return err
	}
	return nil
}

// CountsAsFailure classifies a store error for health accounting: only
// machine-level failures (down, transport, injected faults) count; a
// store that answers "not found" or "already exists" is alive.
func CountsAsFailure(err error) bool {
	if err == nil {
		return false
	}
	return !errors.Is(err, chunk.ErrNotFound) && !errors.Is(err, chunk.ErrExists)
}

// entry returns (creating if needed) the state for id. Caller holds mu.
func (h *HealthMonitor) entry(id ID) *healthEntry {
	e, ok := h.entries[id]
	if !ok {
		e = &healthEntry{state: Live}
		h.entries[id] = e
	}
	return e
}

// ReportSuccess records a successful store operation against id.
func (h *HealthMonitor) ReportSuccess(id ID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	e.successes++
	switch e.state {
	case Live, Suspect:
		e.consec = 0
		e.state = Live
	case Probation:
		// Traffic reaching a probation provider is probe evidence too.
		h.probeResultLocked(id, e, true)
	case Down:
		// Down providers are skipped by the data path; a stray success
		// (e.g. a racing request issued before the transition) is not
		// enough to revive — probation decides that.
	}
}

// ReportFailure records a failed store operation against id.
func (h *HealthMonitor) ReportFailure(id ID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entry(id)
	e.failures++
	switch e.state {
	case Live, Suspect:
		e.consec++
		e.state = Suspect
		if e.consec >= h.cfg.Threshold {
			h.markDownLocked(id, e)
		}
	case Probation:
		h.probeResultLocked(id, e, false)
	case Down:
		// Already down; nothing to learn.
	}
}

// ReportError classifies err (CountsAsFailure) and reports accordingly.
func (h *HealthMonitor) ReportError(id ID, err error) {
	if CountsAsFailure(err) {
		h.ReportFailure(id)
	} else {
		h.ReportSuccess(id)
	}
}

// markDownLocked transitions id to Down by CLAIMING the manager's down
// flag (an atomic live->down flip), removing the provider from
// allocation and read failover and recording the transition epoch so a
// later administrative SetDown is detectable. If the flag is already
// down — an administrator beat the monitor to it — the monitor does
// not claim ownership: the entry resets to Live and the operator's
// flag speaks for itself (Snapshot still reports it down).
func (h *HealthMonitor) markDownLocked(id ID, e *healthEntry) {
	e.consec = 0
	e.probeOK = 0
	epoch, ok, err := h.mgr.claimDown(id)
	if err != nil || !ok {
		e.state = Live
		return
	}
	e.state = Down
	e.downSince = h.now()
	e.epoch = epoch
}

// redownLocked restarts probation for a provider the monitor already
// owns (a failed probe): state returns to Down and the probation clock
// restarts, without re-claiming the flag (it is still set, still ours
// — the caller verified the epoch via cededLocked).
func (h *HealthMonitor) redownLocked(e *healthEntry) {
	e.state = Down
	e.consec = 0
	e.probeOK = 0
	e.downSince = h.now()
}

// cededLocked reports whether the down flag changed hands since the
// monitor set it (an operator ran bsctl down/up). If so, the monitor
// abandons the transition: its entry resets to Live (traffic evidence
// will rebuild it) and the flag is left exactly as the operator set it.
func (h *HealthMonitor) cededLocked(id ID, e *healthEntry) bool {
	if h.mgr.downEpochOf(id) == e.epoch {
		return false
	}
	e.state = Live
	e.consec = 0
	e.probeOK = 0
	return true
}

// probeResultLocked advances the probation state with one probe result.
func (h *HealthMonitor) probeResultLocked(id ID, e *healthEntry, ok bool) {
	if h.cededLocked(id, e) {
		return
	}
	if !ok {
		// Failed probe: back to Down, probation restarts from now — the
		// rate limit on down/live oscillation. The flag is still set
		// and still ours (cededLocked above checked the epoch).
		h.redownLocked(e)
		return
	}
	e.probeOK++
	if e.probeOK >= h.cfg.ProbeSuccesses {
		e.state = Live
		e.consec = 0
		e.probeOK = 0
		if epoch, err := h.mgr.setDown(id, false); err == nil {
			e.epoch = epoch
		}
	}
}

// Tick advances the monitor's clock-driven transitions: every provider
// this monitor marked down whose probation interval has elapsed is
// probed once. Call it periodically (the core Healer does) or per
// virtual-time tick in tests.
func (h *HealthMonitor) Tick() {
	type probeJob struct {
		id ID
		e  *healthEntry
	}
	h.mu.Lock()
	now := h.now()
	probe := h.probe
	var jobs []probeJob
	for id, e := range h.entries {
		switch e.state {
		case Down:
			if h.cededLocked(id, e) {
				continue
			}
			if now.Sub(e.downSince) >= h.cfg.Probation {
				e.state = Probation
				e.probeOK = 0
				jobs = append(jobs, probeJob{id, e})
			}
		case Probation:
			jobs = append(jobs, probeJob{id, e})
		}
	}
	h.mu.Unlock()

	for _, j := range jobs {
		err := probe(j.id)
		h.mu.Lock()
		// Re-check: traffic may have already resolved the probation.
		if e := h.entries[j.id]; e == j.e && e.state == Probation {
			h.probeResultLocked(j.id, e, err == nil)
		}
		h.mu.Unlock()
	}
}

// State returns the current health state of id (Live if never seen).
func (h *HealthMonitor) State(id ID) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[id]; ok {
		return e.state
	}
	return Live
}

// Snapshot reports the health of every registered provider, sorted by
// ID. Providers with no recorded events report Live with zero counters.
func (h *HealthMonitor) Snapshot() []HealthStatus {
	provs := h.mgr.Providers()
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HealthStatus, 0, len(provs))
	for _, p := range provs {
		st := HealthStatus{Provider: p.ID(), Domain: p.Domain(), State: Live}
		if e, ok := h.entries[p.ID()]; ok {
			st.State = e.state
			st.Consec = e.consec
			st.Failures = e.failures
			st.Successes = e.successes
			st.DownSince = e.downSince
		}
		if st.State == Live && p.Down() {
			// Administratively downed (bsctl down): report it as down
			// even though the monitor does not own the transition.
			st.State = Down
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Provider < out[j].Provider })
	return out
}
