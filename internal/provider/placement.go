package provider

import (
	"errors"
	"fmt"

	"repro/internal/chunk"
)

// placementMode is the placement seam: the one thing that knows how a
// chunk is laid out across providers. The router's put core, read core
// and repair entry point are written once against it; replicated (this
// file) and coded (coded.go) are the two layouts, chosen under cfg by
// SetReplicas/SetCoding. It hides two algorithms — it does not merge
// them — and nothing outside the implementations asks which one is on.
type placementMode interface {
	// width is the number of placement positions every chunk should
	// have; floor the fewest that must be stored for it to be readable.
	width() int
	floor() int
	// coding reports the layout as Router.Coding does.
	coding() (k, m int, on bool)

	// allocate picks the width() targets of a new chunk.
	allocate(r *Router, key chunk.Key) ([]*Provider, error)
	// payloads is what each of a chunk's targets stores, in target order.
	payloads(data []byte) [][]byte
	// recorded is the placement entry of a chunk whose store on
	// targets[i] ended in errs[i], a quorum of them nil.
	recorded(targets []*Provider, errs []error) []ID

	// readsHints says whether a caller-supplied set may be read through
	// or only compared; sameHint whether two sets name the same layout.
	readsHints() bool
	sameHint(a, b []ID) bool
	// read serves q from the set ids and counts the read's locality.
	// skips are members bypassed on flags (down or unknown), storeErrs
	// real store errors met on the way to the bytes; either makes the
	// read a degraded one. Every real store attempt is reported to the
	// health monitor.
	read(r *Router, ids []ID, q chunkRead) (out served, skips, storeErrs int, err error)

	// repair restores one chunk to width() live positions and to its
	// domain spread, as RepairChunk documents. The caller holds the
	// chunk's in-flight claim.
	repair(r *Router, key chunk.Key) (outcome RepairOutcome, copied int, err error)
}

// replicated is R-way replication: n whole copies on n distinct
// providers. Any copy serves any read, so a replica set is a SET — order
// carries no meaning, reads rotate over it, a hint naming live copies
// may be read through — and placement records the copies that landed.
type replicated struct{ n int }

func (m replicated) width() int                                           { return m.n }
func (m replicated) floor() int                                           { return 1 }
func (m replicated) coding() (int, int, bool)                             { return 0, 0, false }
func (m replicated) readsHints() bool                                     { return true }
func (m replicated) sameHint(a, b []ID) bool                              { return sameIDSet(a, b) }
func (m replicated) allocate(r *Router, _ chunk.Key) ([]*Provider, error) { return r.AllocateN(m.n) }

func (m replicated) payloads(data []byte) [][]byte {
	parts := make([][]byte, m.n)
	for i := range parts {
		parts[i] = data
	}
	return parts
}

func (m replicated) recorded(targets []*Provider, errs []error) []ID {
	stored := make([]ID, 0, len(targets))
	for i, p := range targets {
		if errs[i] == nil {
			stored = append(stored, p.ID())
		}
	}
	return stored
}

func (m replicated) read(r *Router, ids []ID, q chunkRead) (served, int, int, error) {
	return r.getFromSet(ids, q)
}

// getFromSet tries each replica in preference order (see replicaOrder)
// and returns the first that serves the read, failing over past flagged
// and failing copies alike.
func (r *Router) getFromSet(ids []ID, q chunkRead) (out served, skips, storeErrs int, err error) {
	if len(ids) == 0 {
		return served{}, 0, 0, fmt.Errorf("%w: %s (empty replica set)", chunk.ErrNotFound, q.key)
	}
	local, prefer := r.readLocality()
	var lastErr error
	for _, id := range r.replicaOrder(ids, local, prefer) {
		p := r.byID(id)
		if p == nil {
			lastErr = fmt.Errorf("provider: placement references unknown provider %d", id)
			skips++
			continue
		}
		if p.Down() {
			lastErr = fmt.Errorf("provider %d: %w", id, ErrProviderDown)
			skips++
			continue
		}
		var out served
		var err error
		if q.stream {
			out.rc, err = p.Store().OpenReader(q.key, q.off, q.length)
		} else {
			out.data, err = p.Store().Get(q.key, q.off, q.length)
		}
		r.reportError(id, err)
		if err == nil {
			// Locality counts the read as the store accepts it, length
			// bytes: what Get returned, and what an opened stream promised.
			switch {
			case local == "":
				r.met.getFlat.Inc()
			case p.Domain() == local:
				r.met.getLocal.Inc()
				r.locLocalReads.Add(1)
				r.locLocalBytes.Add(q.length)
			default:
				r.met.getRemote.Inc()
				r.locRemoteReads.Add(1)
				r.locRemoteBytes.Add(q.length)
			}
			return out, skips, storeErrs, nil
		}
		storeErrs++
		lastErr = fmt.Errorf("provider %d: %w", id, err)
	}
	return served{}, skips, storeErrs, fmt.Errorf("provider: all %d replicas of %s failed: %w", len(ids), q.key, lastErr)
}

// replicaOrder returns the order getFromSet tries a replica set in:
// rotated by the shared read cursor so replicated read load spreads
// over all copies, then — when the reader prefers its own domain —
// stably partitioned with same-domain replicas first. Partitioning
// preserves the rotation within each group, so load still balances
// across the local copies; the remote copies remain in the order as
// failover targets, never dropped.
func (r *Router) replicaOrder(ids []ID, local string, prefer bool) []ID {
	start := r.rdNext.Add(1) - 1
	out := make([]ID, 0, len(ids))
	for i := 0; i < len(ids); i++ {
		out = append(out, ids[(start+uint64(i))%uint64(len(ids))])
	}
	if !prefer || local == "" || len(out) < 2 {
		return out
	}
	ordered := make([]ID, 0, len(out))
	for _, id := range out {
		if r.DomainOf(id) == local {
			ordered = append(ordered, id)
		}
	}
	if len(ordered) == 0 || len(ordered) == len(out) {
		return out
	}
	for _, id := range out {
		if r.DomainOf(id) != local {
			ordered = append(ordered, id)
		}
	}
	return ordered
}

// sameIDSet reports whether two replica sets name the same providers,
// ignoring order.
func sameIDSet(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[ID]int, len(a))
	for _, id := range a {
		seen[id]++
	}
	for _, id := range b {
		if seen[id] == 0 {
			return false
		}
		seen[id]--
	}
	return true
}

// repair re-replicates: it verifies which recorded replicas still hold
// the data (probing stores, so flag-lagging dead machines are caught),
// copies from a survivor onto enough new distinct providers to restore
// the degree, and records the new set.
func (m replicated) repair(r *Router, key chunk.Key) (outcome RepairOutcome, copied int, err error) {
	want := m.n
	ids, ok := r.Locate(key)
	if !ok {
		return RepairHealthy, 0, nil
	}
	live := r.liveReplicas(key, ids, true, true)
	if len(live) == len(ids) && len(live) >= want {
		// Full degree. Restore the domain spread if the set co-locates
		// while a spare live domain exists, then retire any copies
		// ABOVE degree (left behind by a spread move whose eviction
		// failed); otherwise nothing to do.
		if r.spreadViolatedSet(live) {
			if moved, merr := r.improveSpread(key, live); merr != nil {
				return RepairPartial, 0, merr
			} else if moved {
				return RepairRepaired, 1, nil
			}
		}
		if len(live) > want {
			r.trimExcess(key, live, want)
		}
		return RepairHealthy, 0, nil
	}
	if len(live) == 0 {
		return RepairLost, 0, fmt.Errorf("provider: chunk %s has no surviving replica", key)
	}
	newIDs, rerr := r.rereplicate(key, live, want)
	if rerr != nil {
		// Record any copies that DID land before the failure: invisible
		// copies would be orphans — unreadable, re-copied by the next
		// repair, and never reclaimed by DeleteReplicas.
		if len(newIDs) > len(live) {
			copied = len(newIDs) - len(live)
			r.setPlacement(key, newIDs)
		}
		return RepairPartial, copied, rerr
	}
	copied = len(newIDs) - len(live)
	r.setPlacement(key, newIDs)
	if len(newIDs) >= want {
		return RepairRepaired, copied, nil
	}
	return RepairPartial, copied, nil
}

// rereplicate copies one chunk from a surviving replica onto enough new
// providers to restore the replication degree, returning the new
// replica set (live survivors plus new copies). The survivors' failure
// domains are handed to the allocator as already-covered, so new
// copies land in uncovered domains first — a repair after a domain
// loss restores the spread invariant along with the count.
func (r *Router) rereplicate(key chunk.Key, live []ID, want int) ([]ID, error) {
	missing := want - len(live)
	if missing <= 0 {
		return live, nil
	}
	data, err := r.readFull(key, live)
	if err != nil {
		return nil, err
	}
	exclude := make(map[ID]bool, len(live))
	have := make(map[string]int, len(live))
	for _, id := range live {
		exclude[id] = true
		have[r.DomainOf(id)]++
	}
	out := append([]ID(nil), live...)
	var lastErr error
	// A target whose store fails the copy (a dead machine the health
	// monitor has not flagged yet) is excluded and allocation retried,
	// so one repair call converges past flag-lagging losses instead of
	// waiting for detection. The loop terminates: every round either
	// places a copy or grows the exclusion set.
	for missing > 0 {
		targets, aerr := r.allocateSpread(missing, exclude, have)
		if aerr != nil {
			if lastErr == nil {
				lastErr = aerr
			}
			return out, lastErr
		}
		for _, p := range targets {
			exclude[p.ID()] = true
			err := r.putOne(p, key, payload{data: data})
			// Tolerate ErrExists: an earlier partial repair or a
			// quorum-failed Put may have left a valid copy here.
			if err != nil && !errors.Is(err, chunk.ErrExists) {
				lastErr = fmt.Errorf("provider %d: %w", p.ID(), err)
				continue
			}
			out = append(out, p.ID())
			have[p.Domain()]++
			missing--
		}
	}
	return out, nil
}

// improveSpread moves one replica of a full-degree chunk into a
// failure domain the set does not cover: copy onto a provider in an
// uncovered domain, then delete one copy from the most crowded domain.
// moved is false when no uncovered live domain has a spare provider.
// A failed delete leaves the extra copy in placement (harmless: one
// copy above degree); the scrubber re-finds above-degree sets and
// RepairChunk retires them via trimExcess. Caller holds the chunk's
// in-flight claim.
func (r *Router) improveSpread(key chunk.Key, live []ID) (moved bool, err error) {
	exclude := make(map[ID]bool, len(live))
	have := make(map[string]int, len(live))
	for _, id := range live {
		exclude[id] = true
		have[r.DomainOf(id)]++
	}
	targets, err := r.allocateSpread(1, exclude, have)
	if err != nil {
		return false, nil // no spare provider at all; count is intact
	}
	target := targets[0]
	if have[target.Domain()] > 0 {
		return false, nil // every uncovered domain is down or exhausted
	}
	data, err := r.readFull(key, live)
	if err != nil {
		return false, err
	}
	if err := r.putOne(target, key, payload{data: data}); err != nil && !errors.Is(err, chunk.ErrExists) {
		return false, err
	}
	// Evict one copy from a crowded domain (>= 2 live copies): the new
	// copy covers a fresh domain, so coverage strictly improves. The
	// LAST such replica goes, keeping the earliest-written copy in
	// place.
	newSet := append([]ID(nil), live...)
	for i := len(newSet) - 1; i >= 0; i-- {
		id := newSet[i]
		if have[r.DomainOf(id)] < 2 {
			continue
		}
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		derr := p.Store().Delete(key)
		r.reportError(id, derr)
		if derr == nil || errors.Is(derr, chunk.ErrNotFound) {
			newSet = append(newSet[:i], newSet[i+1:]...)
		}
		break
	}
	newSet = append(newSet, target.ID())
	r.setPlacement(key, newSet)
	return true, nil
}

// trimExcess deletes copies above the replication degree — left behind
// when a spread move's eviction failed — keeping coverage by trimming
// the most crowded domains first (the last replica there goes, as in
// improveSpread). A failed delete stops the trim; the copy stays
// recorded and the next scrub pass retries. Caller holds the chunk's
// in-flight claim.
func (r *Router) trimExcess(key chunk.Key, live []ID, want int) {
	out := append([]ID(nil), live...)
	trimmed := false
	for len(out) > want {
		counts := make(map[string]int, len(out))
		for _, id := range out {
			counts[r.DomainOf(id)]++
		}
		idx, best := -1, -1
		for i, id := range out {
			if c := counts[r.DomainOf(id)]; c >= best {
				idx, best = i, c
			}
		}
		p := r.byID(out[idx])
		if p == nil || p.Down() {
			break // unreachable copy; a later pass retries
		}
		derr := p.Store().Delete(key)
		r.reportError(out[idx], derr)
		if derr != nil && !errors.Is(derr, chunk.ErrNotFound) {
			break
		}
		out = append(out[:idx], out[idx+1:]...)
		trimmed = true
	}
	if trimmed {
		r.setPlacement(key, out)
	}
}

// readFull reads a whole chunk from the first surviving replica able to
// serve it.
func (r *Router) readFull(key chunk.Key, live []ID) ([]byte, error) {
	var lastErr error
	for _, id := range live {
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		size, err := p.Store().Len(key)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := p.Store().Get(key, 0, size)
		if err != nil {
			lastErr = err
			continue
		}
		return data, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %s", chunk.ErrNotFound, key)
	}
	return nil, lastErr
}
