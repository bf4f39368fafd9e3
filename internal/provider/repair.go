package provider

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/chunk"
)

// RepairStats summarizes one re-replication pass.
type RepairStats struct {
	Scanned  int // chunks examined
	Degraded int // chunks found below the replication degree
	Copied   int // new copies written
	Repaired int // chunks restored to full degree
	Lost     int // chunks with no surviving replica (data loss)
	Failed   int // chunks whose repair attempt failed
}

// RepairOutcome classifies one RepairChunk attempt.
type RepairOutcome int

// Repair outcomes.
const (
	// RepairHealthy: the chunk already had R verified-live copies.
	RepairHealthy RepairOutcome = iota
	// RepairRepaired: new copies restored the chunk to full degree.
	RepairRepaired
	// RepairPartial: some copies were written but the chunk is still
	// below degree (allocation or store failures); the scrubber will
	// re-find it next pass.
	RepairPartial
	// RepairLost: no verified-live replica survives — the data is gone.
	RepairLost
)

func (o RepairOutcome) String() string {
	switch o {
	case RepairHealthy:
		return "healthy"
	case RepairRepaired:
		return "repaired"
	case RepairPartial:
		return "partial"
	case RepairLost:
		return "lost"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// noID marks a placement slot repair has yet to fill (placementMode.holes);
// a slot still holding it when repair ends is dropped.
const noID ID = -1

// RepairChunk restores one chunk, in either placement mode: it probes
// every recorded position (so flag-lagging dead machines are caught),
// rebuilds the missing ones from the survivors onto fresh providers —
// in failure domains the survivors do not cover — and updates
// placement. A chunk already at full degree whose positions co-locate
// in fewer domains than the pool could spread them over is re-spread:
// one position moves to an uncovered domain (restoring the spread
// invariant, not just the count). copied reports how many copies or
// fragments were written, moves included. Unknown keys return
// RepairHealthy (nothing recorded to restore), as does a chunk whose
// in-flight claim is held by another worker — a concurrent deletion
// (the chunk is going away; repairing it would resurrect garbage) or
// a concurrent repair (which will restore it itself).
func (r *Router) RepairChunk(key chunk.Key) (outcome RepairOutcome, copied int, err error) {
	var start time.Time
	if r.met.repairSec != nil {
		start = time.Now()
	}
	defer func() {
		if outcome >= RepairHealthy && outcome <= RepairLost {
			r.met.repairOut[outcome].Inc()
		}
		if r.met.repairSec != nil {
			r.met.repairSec.ObserveSince(start)
		}
	}()
	if !r.claimKey(key) {
		return RepairHealthy, 0, nil
	}
	defer r.releaseKey(key)
	return r.repair(key)
}

// repair is the one repair core. The placement mode answers only what
// differs between the layouts: how the bytes of a missing position are
// decoded, how placement is recorded (holes), and whether positions are
// interchangeable whole copies. Caller holds the chunk's in-flight claim.
func (r *Router) repair(key chunk.Key) (RepairOutcome, int, error) {
	m := r.placementMode()
	ids, ok := r.Locate(key)
	if !ok {
		return RepairHealthy, 0, nil
	}
	if !m.copies() && len(ids) != m.width() {
		return RepairPartial, 0, fmt.Errorf("provider: repair of %s: placement has %d positions, want %d (stored under a different mode?)", key, len(ids), m.width())
	}
	live, n := r.probe(key, ids, true)
	if n < m.floor() {
		return RepairLost, 0, fmt.Errorf("provider: chunk %s has %d of %d positions live, need %d", key, n, len(ids), m.floor())
	}
	if n == len(ids) && n >= m.width() {
		// Full degree. Restore the domain spread if the positions
		// co-locate while a spare live domain exists, then retire any
		// copies ABOVE degree (left behind by a replicated spread move
		// whose eviction failed); otherwise nothing to do.
		if r.spreadViolatedIn(ids, r.liveDomainCount) {
			if moved, err := r.respread(m, key, ids); err != nil {
				return RepairPartial, 0, err
			} else if moved {
				return RepairRepaired, 1, nil
			}
		}
		if len(ids) > m.width() {
			r.trimExcess(key, ids, m.width())
		}
		return RepairHealthy, 0, nil
	}
	rec, fill := m.holes(ids, live)
	copied := 0
	var err error
	if len(fill) > 0 {
		var payloads [][]byte
		if payloads, err = r.rebuild(m, key, ids, live); err != nil {
			return RepairPartial, 0, err
		}
		exclude, have := r.spread(ids, live)
		for _, pos := range fill {
			var p *Provider
			if p, err = r.placeOne(m, key, payloads[pos], exclude, have); err != nil {
				break
			}
			rec[pos] = p.ID()
			copied++
		}
	}
	// Record every copy that landed, even when the repair stopped short:
	// an unrecorded copy would be an orphan — unreadable, re-copied by
	// the next repair, and never reclaimed by DeleteReplicas.
	if copied > 0 || err == nil {
		r.setPlacement(key, slices.DeleteFunc(rec, func(id ID) bool { return id == noID }))
	}
	if err != nil {
		return RepairPartial, copied, err
	}
	return RepairRepaired, copied, nil
}

// rebuild reads floor() live positions of a degraded chunk whole and
// decodes from them what each of its width() positions stores.
func (r *Router) rebuild(m placementMode, key chunk.Key, ids []ID, live []bool) ([][]byte, error) {
	read := make([][]byte, len(ids))
	got := 0
	var errs []error
	for i, id := range ids {
		if !live[i] || got == m.floor() {
			continue
		}
		var err error
		if read[i], err = r.readWhole(id, key); err != nil {
			errs = append(errs, fmt.Errorf("provider %d: %w", id, err))
			continue
		}
		got++
	}
	if got < m.floor() {
		return nil, fmt.Errorf("provider: %d positions of %s readable, need %d: %w", got, key, m.floor(), errors.Join(errs...))
	}
	return m.decode(read)
}

// respread moves one position of a full-degree chunk into a failure
// domain it does not cover: pick the last holder in the most crowded
// domain, pick a target in an uncovered domain, copy that position's
// bytes there, evict the old holder and record the target in its
// place. moved is false when no uncovered live domain has a spare
// provider. A failed eviction leaves what the mode can record: a
// replica set keeps both copies (one above degree, which the next pass
// trims), a coded position holds one provider, so the copy is deleted
// again and the error returned — no fragment is left outside placement
// without an error naming it.
func (r *Router) respread(m placementMode, key chunk.Key, ids []ID) (moved bool, err error) {
	exclude, have := r.spread(ids, nil)
	idx := -1
	for i := len(ids) - 1; i >= 0 && idx < 0; i-- {
		if have[r.DomainOf(ids[i])] >= 2 && r.liveStore(ids[i]) != nil {
			idx = i
		}
	}
	targets, err := r.allocateSpread(1, exclude, have)
	if idx < 0 || err != nil || have[targets[0].Domain()] > 0 {
		return false, nil // no live crowded holder, or no spare provider in an uncovered live domain
	}
	target := targets[0]
	data, err := r.readWhole(ids[idx], key)
	if err == nil {
		err = r.putCopy(m, target, key, data)
	}
	if err != nil {
		return false, err
	}
	if err := r.evict(ids[idx], key); err != nil {
		if m.copies() {
			r.setPlacement(key, append(ids, target.ID()))
			return true, nil
		}
		err = fmt.Errorf("provider: evicting fragment of %s from provider %d: %w", key, ids[idx], err)
		if uerr := r.evict(target.ID(), key); uerr != nil {
			err = errors.Join(err, fmt.Errorf("provider %d keeps an unrecorded fragment of %s: %w", target.ID(), key, uerr))
		}
		return false, err
	}
	rec := slices.Clone(ids)
	rec[idx] = target.ID()
	r.setPlacement(key, rec)
	return true, nil
}

// spread is what allocateSpread needs to add to a chunk's placement:
// every recorded provider excluded, and the failure domains its live
// positions cover (every position when live is nil).
func (r *Router) spread(ids []ID, live []bool) (exclude map[ID]bool, have map[string]int) {
	exclude = make(map[ID]bool, len(ids))
	have = make(map[string]int, len(ids))
	for i, id := range ids {
		exclude[id] = true
		if live == nil || live[i] {
			have[r.DomainOf(id)]++
		}
	}
	return exclude, have
}

// placeOne stores one position's bytes on a fresh provider, picked by
// allocateSpread(1, exclude, have) so it fills a domain the chunk does
// not cover first. A target whose store refuses the put (a dead machine
// the health monitor has not flagged yet) is excluded and the pick
// retried, so one repair converges past flag-lagging losses; refusals
// only count if the copy never lands. The loop ends: every round places
// the copy or grows exclude.
func (r *Router) placeOne(m placementMode, key chunk.Key, data []byte, exclude map[ID]bool, have map[string]int) (*Provider, error) {
	var errs []error
	for {
		targets, err := r.allocateSpread(1, exclude, have)
		if err != nil {
			return nil, errors.Join(append(errs, err)...)
		}
		p := targets[0]
		exclude[p.ID()] = true
		if err := r.putCopy(m, p, key, data); err != nil {
			errs = append(errs, fmt.Errorf("provider %d: %w", p.ID(), err))
			continue
		}
		have[p.Domain()]++
		return p, nil
	}
}

// putCopy stores one position's bytes on p. A store already holding the
// key counts as a copy only where positions are interchangeable copies:
// an earlier partial repair or a quorum-failed Put may have left a valid
// replica there, while under coding it is some other position's orphan.
func (r *Router) putCopy(m placementMode, p *Provider, key chunk.Key, data []byte) error {
	err := r.putOne(p, key, payload{data: data})
	if m.copies() && errors.Is(err, chunk.ErrExists) {
		return nil
	}
	return err
}

// readWhole reads all provider id holds of key and reports the store's
// answer to the health monitor; a flagged or unknown provider is
// ErrProviderDown without a store call.
func (r *Router) readWhole(id ID, key chunk.Key) ([]byte, error) {
	s := r.liveStore(id)
	if s == nil {
		return nil, ErrProviderDown
	}
	size, err := s.Len(key)
	var data []byte
	if err == nil {
		data, err = s.Get(key, 0, size)
	}
	r.reportError(id, err)
	return data, err
}

// evict deletes key from provider id's store and reports the answer; a
// copy already gone counts as evicted, a flagged provider as a failure.
func (r *Router) evict(id ID, key chunk.Key) error {
	s := r.liveStore(id)
	if s == nil {
		return ErrProviderDown
	}
	err := s.Delete(key)
	r.reportError(id, err)
	if errors.Is(err, chunk.ErrNotFound) {
		return nil
	}
	return err
}

// trimExcess deletes replicas above the degree — left behind when a
// spread move's eviction failed — keeping coverage by trimming the most
// crowded domains first (the last replica there goes, as in respread).
// A failed delete stops the trim; the copy stays recorded and the next
// scrub pass retries. Caller holds the chunk's in-flight claim.
func (r *Router) trimExcess(key chunk.Key, ids []ID, want int) {
	out := slices.Clone(ids)
	for len(out) > want {
		_, counts := r.spread(out, nil)
		idx, best := -1, -1
		for i, id := range out {
			if c := counts[r.DomainOf(id)]; c >= best {
				idx, best = i, c
			}
		}
		if r.evict(out[idx], key) != nil {
			break // unreachable or refusing copy; a later pass retries
		}
		out = slices.Delete(out, idx, idx+1)
	}
	if len(out) < len(ids) {
		r.setPlacement(key, out)
	}
}

// Repair is the full re-replication pass: it scans the placement map
// for chunks whose live replica count dropped below the replication
// degree (a provider died), copies them from a surviving replica onto
// new distinct providers, and updates placement. Chunks with no
// surviving replica are counted as Lost — with R >= 2 that requires
// losing multiple machines between repairs. Safe to run while writes
// proceed; each chunk is repaired independently. The background healer
// (core.Healer) runs the same repair chunk-by-chunk, rate limited.
func (r *Router) Repair() RepairStats {
	var st RepairStats
	for _, key := range r.Keys() {
		st.Scanned++
		// RepairChunk verifies replicas itself (store probes, so a
		// store-dead but flag-live replica — machine died, detector
		// not yet tripped — still counts as degraded and a manual
		// `bsctl repair` heals it without waiting on the monitor), so
		// the outcome doubles as the degradation classification.
		outcome, copied, _ := r.RepairChunk(key)
		st.Copied += copied
		switch outcome {
		case RepairHealthy:
			// At full degree; not degraded.
		case RepairRepaired:
			st.Degraded++
			st.Repaired++
		case RepairLost:
			st.Degraded++
			st.Lost++
		default:
			st.Degraded++
			st.Failed++
		}
	}
	return st
}

// probe reports which positions of a chunk's recorded set hold it:
// live[i] when ids[i]'s provider is known, not flagged down, and its
// store answers a Len probe; n counts them. Probing is what lets the
// scrubber and repair catch a dead machine BEFORE the health monitor
// has flagged it. With report set, probe outcomes feed the monitor (so
// scrub traffic itself trips detection); passive observers like
// UnderReplicated probe silently to avoid acting as detectors.
func (r *Router) probe(key chunk.Key, ids []ID, report bool) (live []bool, n int) {
	live = make([]bool, len(ids))
	for i, id := range ids {
		s := r.liveStore(id)
		if s == nil {
			continue
		}
		_, err := s.Len(key)
		if report {
			r.reportError(id, err)
		}
		if err == nil {
			live[i] = true
			n++
		}
	}
	return live, n
}

// VerifyReplicas is the scrubber's one per-chunk check: it probes every
// recorded replica's (or fragment's) store — reporting outcomes to the
// health monitor — and returns the verified-live count against the
// placement degree; a chunk with no placement verifies 0 of 0, nothing
// to restore. misplaced answers for the placement of a chunk whose live
// count matches: its positions co-locate while a spare live domain
// exists, or its recorded set also names a dead provider (a stale entry
// the live count cannot see). Like the spread audit it is flag-based and
// answers only on a domain-tagged pool with more than one live domain.
func (r *Router) VerifyReplicas(key chunk.Key) (live, want int, misplaced bool) {
	ids, ok := r.Locate(key)
	if !ok {
		return 0, 0, false
	}
	want = r.degree()
	if _, live = r.probe(key, ids, true); live != want {
		return live, want, false
	}
	if len(ids) == want {
		return live, want, r.spreadViolatedIn(ids, r.liveDomainCount)
	}
	return live, want, r.liveDomainCount() > 1
}

// UnderReplicated counts placement entries whose verified-live replica
// (or fragment) count is below the placement degree — the healer's
// convergence metric: zero means every known chunk is back at full
// degree. It is a passive observer: its probes do NOT feed the health
// monitor, so asserting convergence never doubles as failure detection.
func (r *Router) UnderReplicated() int {
	want := r.degree()
	n := 0
	for _, key := range r.Keys() {
		ids, ok := r.Locate(key)
		if !ok {
			continue
		}
		if _, live := r.probe(key, ids, false); live < want {
			n++
		}
	}
	return n
}

// liveDomainCount counts failure domains with at least one flag-live
// provider — the spread width currently achievable. A pool that is
// not fully tagged counts as ONE domain: during a topology transition
// the spread machinery (audit, spread repair, violation checks) stays
// inert, for the same reason allocateSpread stays flat (see
// domainPromise).
func (m *Manager) liveDomainCount() int {
	if _, full := m.domainPromise(); !full {
		return 1
	}
	seen := make(map[string]bool)
	for _, p := range m.Providers() {
		if !p.Down() {
			seen[p.Domain()] = true
		}
	}
	return len(seen)
}

// spreadViolatedIn reports whether a recorded set (its flag-live
// members) spans fewer distinct failure domains than it could, given
// liveDoms() live domains: the invariant is min(degree, set size, live
// domains) distinct domains. A flat pool (one domain) never violates.
// liveDoms is called only for a set short of min(degree, set size).
func (r *Router) spreadViolatedIn(ids []ID, liveDoms func() int) bool {
	covered := make(map[string]bool)
	n := 0
	for _, id := range ids {
		if p := r.byID(id); p != nil && !p.Down() {
			n++
			covered[p.Domain()] = true
		}
	}
	return len(covered) < min(r.degree(), n) && len(covered) < liveDoms()
}

// SpreadAudit scans the placement map for chunks whose live replicas
// violate the domain-spread invariant — the operator's correlated-loss
// exposure report (bsctl health). Like UnderReplicated it is a passive
// observer: no store probes, no health reports.
func (r *Router) SpreadAudit() []chunk.Key {
	liveDoms := r.liveDomainCount()
	if liveDoms <= 1 {
		return nil
	}
	var out []chunk.Key
	for _, key := range r.Keys() {
		if ids, ok := r.Locate(key); ok && r.spreadViolatedIn(ids, func() int { return liveDoms }) {
			out = append(out, key)
		}
	}
	return out
}
