package provider

import (
	"fmt"
	"slices"

	"repro/internal/chunk"
)

// placementMode is the placement seam: the one thing that knows how a
// chunk is laid out across providers. The router's put core, read core
// and repair core are written once against it; replicated (this
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

	// RepairChunk's one core (repair.go) restores, re-spreads and trims
	// both layouts and asks the mode only what differs between them.
	//
	// decode turns what repair read whole from floor() live positions
	// (nil at every other position) into what each of the width()
	// positions stores, as payloads does.
	decode(read [][]byte) ([][]byte, error)
	// holes is the placement a repair records, given which recorded
	// positions are live, and the positions in it to fill; a slot
	// holding noID when repair ends is dropped.
	holes(ids []ID, live []bool) (rec []ID, fill []int)
	// copies says whether positions are interchangeable whole copies.
	// If so, a repair target already holding the key holds a valid copy,
	// and a spread move whose eviction fails records both copies, one
	// above degree for the next pass to trim. If not (coded), the key on
	// a target is another position's orphan and refuses the target, and
	// a failed eviction undoes the move.
	copies() bool
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
func (m replicated) copies() bool                                         { return true }
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

// decode hands every position the one copy repair read.
func (m replicated) decode(read [][]byte) ([][]byte, error) {
	return m.payloads(read[slices.IndexFunc(read, func(b []byte) bool { return b != nil })]), nil
}

// holes keeps the live members in order and appends a slot per missing
// copy: a dead member is pruned, not replaced, since any member serves.
func (m replicated) holes(ids []ID, live []bool) (rec []ID, fill []int) {
	for i, id := range ids {
		if live[i] {
			rec = append(rec, id)
		}
	}
	for len(rec) < m.n {
		fill = append(fill, len(rec))
		rec = append(rec, noID)
	}
	return rec, fill
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
