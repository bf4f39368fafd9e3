package provider

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/chunk"
)

// ParseCoding parses an "rs-<k>+<m>" coding spec ("rs-4+2"): two
// unsigned decimal integers around one '+', nothing else. The empty
// string means coding off (k=0, m=0, nil error).
func ParseCoding(s string) (k, m int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	rest, ok := strings.CutPrefix(s, "rs-")
	ks, ms, _ := strings.Cut(rest, "+")
	// 16 bits hold any legal count and keep the sum clear of overflow.
	kk, kerr := strconv.ParseUint(ks, 10, 16)
	mm, merr := strconv.ParseUint(ms, 10, 16)
	if !ok || kerr != nil || merr != nil {
		return 0, 0, fmt.Errorf("provider: coding spec %q: want rs-<k>+<m>", s)
	}
	if _, err := chunk.NewRSCode(int(kk), int(mm)); err != nil {
		return 0, 0, err
	}
	return int(kk), int(mm), nil
}

// SetCoding switches the router to erasure-coded placement with k data
// and m parity fragments per chunk. SetCoding(0, 0) turns coding off
// (back to replication). Coded mode supersedes SetReplicas, in whichever
// order the two are called: the effective placement degree becomes k+m.
// Configure before storing any chunks — see the mode-selection note on
// coded.
func (r *Router) SetCoding(k, m int) error {
	if k == 0 && m == 0 {
		r.cfg.Lock()
		r.mode = replicated{n: r.replicas}
		r.cfg.Unlock()
		return nil
	}
	code, err := chunk.NewRSCode(k, m)
	if err != nil {
		return err
	}
	r.cfg.Lock()
	r.mode = coded{code}
	r.cfg.Unlock()
	return nil
}

// Coding reports the configured erasure code (on=false means the
// router replicates).
func (r *Router) Coding() (k, m int, on bool) { return r.placementMode().coding() }

// coded is erasure-coded placement: instead of R full copies, each
// chunk is Reed-Solomon encoded into k data + m parity fragments placed
// on k+m distinct providers (domain-spread by the same allocator
// replication uses). Any k fragments reconstruct the chunk, so
// durability matches m-loss replication at (k+m)/k storage overhead
// instead of R.
//
// # Coded placement contract
//
//   - Placement is POSITIONAL: the i-th entry of a coded chunk's
//     replica set is the provider holding fragment i (0..k-1 data,
//     k..k+m-1 parity). Every placement entry has exactly k+m
//     positions and is never reordered; a position whose provider lost
//     (or never stored) its fragment is detected by store probes, not by
//     a sentinel.
//   - Fragment content is a pure function of (chunk bytes, position),
//     so a provider that ever held position i holds bytes valid for
//     position i forever (chunks are immutable). Repair therefore
//     NEVER tolerates chunk.ErrExists on a new target: an existing key
//     there is some other position's orphan, and recording it would
//     serve wrong bytes.
//   - Reads serve the requested sub-range straight from the data
//     fragments it touches (no decode). When one of those is flagged
//     away or fails, the read degrades: it fetches the surviving data
//     fragments plus one parity fragment per missing one, and rebuilds
//     only the missing data fragments the range covers, in place. They
//     count as locality-flat: fragments are spread across domains by
//     design, so a "local read" of one chunk does not exist.
//   - A stripe starts at a key-derived position of its spread (see
//     allocate): a lost domain holds a data fragment of k in k+m chunks.
//   - Repair re-encodes: it reads any k surviving fragments, rebuilds
//     the missing positions, and writes each one to a fresh provider
//     in-position, preferring failure domains the survivors do not
//     cover. Fewer than k survivors is data loss (RepairLost).
//   - Replica-set hints are refreshed but never read through:
//     positions may have moved since the hint was recorded, and a
//     positional misread cannot always be detected. Placement is the
//     only read authority; a hint that differs from it (ordered
//     compare — position matters) returns a fresh set.
//
// Mode selection is boot-time configuration: switching a router with
// recorded placement between replicated and coded modes is not
// supported (existing entries would be misread under the other mode's
// semantics).
type coded struct{ code *chunk.RSCode }

func (c coded) width() int               { return c.code.K + c.code.M }
func (c coded) floor() int               { return c.code.K }
func (c coded) coding() (int, int, bool) { return c.code.K, c.code.M, true }
func (c coded) readsHints() bool         { return false }
func (c coded) sameHint(a, b []ID) bool  { return slices.Equal(a, b) } // ordered: position matters

// allocate spreads the stripe in allocateSpread's water-fill mode, which
// an empty non-nil have selects: fragments still land one-per-domain
// while enough domains are live, but a stripe as wide as the domain
// count must not refuse every write during a single domain outage — it
// doubles up in the survivors and the spread audit re-spreads once the
// domain returns. (Replicated fresh allocation keeps the strict promise:
// R is normally far below the domain count, so a refusal there signals
// misconfiguration, not an outage.)
//
// The spread comes back in domain-ring order, which does not turn between
// calls for a stripe as wide as the ring (see allocateSpread), so the
// stripe is rotated here by a hash of the key: fragment 0 starts anywhere
// in it with equal odds. The allocation rotates; the record stays positional.
func (c coded) allocate(r *Router, key chunk.Key) ([]*Provider, error) {
	targets, err := r.allocateSpread(c.width(), nil, map[string]int{})
	if err != nil {
		return nil, err
	}
	// splitmix64's finalizer over the folded key: the same in every process.
	x := (key.Blob*0x9e3779b97f4a7c15+key.Version)*0x9e3779b97f4a7c15 + uint64(key.Index)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	rot := int((x ^ x>>31) % uint64(len(targets)))
	return slices.Concat(targets[rot:], targets[:rot]), nil
}

// payloads is the stripe: fragment i goes to the i-th target.
func (c coded) payloads(data []byte) [][]byte { return c.code.Encode(data) }

// recorded is ALL k+m positions, landed or not: a position whose store
// failed is found by the probe-based repair path, which re-encodes it
// onto a fresh provider.
func (c coded) recorded(targets []*Provider, errs []error) []ID {
	stored := make([]ID, len(targets))
	for i, p := range targets {
		stored[i] = p.ID()
	}
	return stored
}

// read serves a coded read from placement. The bytes are assembled from
// fragments either way, so a stream read shares the byte read's path
// and hands the result out behind a reader: there is no single store
// file to splice to a socket.
func (c coded) read(r *Router, ids []ID, q chunkRead) (out served, skips, storeErrs int, err error) {
	data, skips, storeErrs, err := r.readCoded(c.code, ids, q.key, q.off, q.length)
	if err != nil {
		return served{}, skips, storeErrs, err
	}
	r.met.getFlat.Inc()
	if q.stream {
		return served{rc: io.NopCloser(bytes.NewReader(data))}, skips, storeErrs, nil
	}
	return served{data: data}, skips, storeErrs, nil
}

// readFragment reads len(buf) bytes at off of the fragment provider id
// holds, straight from its store into buf, and reports the store's
// answer to the health monitor. A flagged or unknown provider is
// ErrProviderDown without a store call.
func (r *Router) readFragment(id ID, key chunk.Key, off int64, buf []byte) error {
	p := r.byID(id)
	if p == nil || p.Down() {
		return ErrProviderDown
	}
	rc, err := p.Store().OpenReader(key, off, int64(len(buf)))
	if err == nil {
		_, err = io.ReadFull(rc, buf)
		rc.Close()
	}
	r.reportError(id, err)
	return err
}

// readCoded serves one coded sub-range read from the positional set
// ids. The direct path reads only the data fragments the range touches,
// each straight into its place in the reply. A fragment there that is
// flagged away (skips, checked before anything is fetched) or fails the
// read (storeErrs) makes it a degraded read: one chunk image, every
// surviving data fragment read into its slot, a parity fragment per
// missing one, and the missing fragments the range covers — no others —
// rebuilt in their slots.
func (r *Router) readCoded(code *chunk.RSCode, ids []ID, key chunk.Key, off, length int64) (data []byte, skips, storeErrs int, err error) {
	k, n := code.K, code.K+code.M
	if len(ids) != n {
		return nil, 0, 0, fmt.Errorf("provider: coded placement of %s has %d positions, want %d", key, len(ids), n)
	}
	if off < 0 || length < 0 {
		return nil, 0, 0, fmt.Errorf("provider: invalid coded read [%d, %d) of %s", off, off+length, key)
	}
	if length == 0 {
		return []byte{}, 0, 0, nil
	}
	// Fragment size: all k+m fragments of a chunk are equal by
	// construction, so the first live fragment's Len is authoritative.
	ss := int64(-1)
	var lastErr error
	for _, id := range ids {
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		sz, lerr := p.Store().Len(key)
		r.reportError(id, lerr)
		if lerr == nil {
			ss = sz
			break
		}
		lastErr = lerr
	}
	if ss < 0 {
		if lastErr == nil {
			lastErr = ErrProviderDown
		}
		return nil, 0, 0, fmt.Errorf("provider: no readable fragment of %s: %w", key, lastErr)
	}
	if off+length > int64(k)*ss {
		return nil, 0, 0, fmt.Errorf("provider: coded read [%d, %d) of %s exceeds chunk bound %d", off, off+length, key, int64(k)*ss)
	}
	lo, hi := int(off/ss), int((off+length-1)/ss)
	for i := lo; i <= hi; i++ {
		if p := r.byID(ids[i]); p == nil || p.Down() {
			skips++
		}
	}
	if skips == 0 {
		out := make([]byte, length)
		for i, at := lo, int64(0); i <= hi && storeErrs == 0; i++ {
			// The range of fragment i that is asked for.
			flo, fhi := max(off-int64(i)*ss, 0), min(off+length-int64(i)*ss, ss)
			if r.readFragment(ids[i], key, flo, out[at:at+fhi-flo]) != nil {
				storeErrs++
			}
			at += fhi - flo
		}
		if storeErrs == 0 {
			return out, 0, 0, nil
		}
	}
	image := make([]byte, int64(k)*ss)
	shards, fill := make([][]byte, n), make([][]byte, k)
	got := 0
	for i := 0; i < n && got < k; i++ {
		var buf []byte
		if i < k {
			buf = image[int64(i)*ss : int64(i+1)*ss]
		} else {
			buf = make([]byte, ss)
		}
		if ferr := r.readFragment(ids[i], key, 0, buf); ferr != nil {
			lastErr = ferr
			if lo <= i && i <= hi {
				fill[i] = buf
			}
			continue
		}
		shards[i] = buf
		got++
	}
	if got < k {
		return nil, skips, storeErrs, fmt.Errorf("provider: only %d of %d fragments of %s readable, need %d: %w",
			got, n, key, k, lastErr)
	}
	if rerr := code.ReconstructData(shards, fill); rerr != nil {
		return nil, skips, storeErrs, rerr
	}
	return image[off : off+length], skips, storeErrs, nil
}

// repair restores a coded chunk to k+m live fragments: probe every
// position, read any k surviving fragments, re-encode, and write each
// missing position onto a fresh provider (excluding every recorded
// member, preferring uncovered failure domains). A chunk at full degree
// whose fragments co-locate while a spare live domain exists gets one
// fragment relocated instead.
func (c coded) repair(r *Router, key chunk.Key) (outcome RepairOutcome, copied int, err error) {
	code := c.code
	n := code.K + code.M
	ids, ok := r.Locate(key)
	if !ok {
		return RepairHealthy, 0, nil
	}
	if len(ids) != n {
		return RepairPartial, 0, fmt.Errorf("provider: coded repair of %s: placement has %d positions, want %d (stored under a different mode?)", key, len(ids), n)
	}
	liveAt := make([]bool, n)
	live := 0
	for i, id := range ids {
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		_, lerr := p.Store().Len(key)
		r.reportError(id, lerr)
		if lerr == nil {
			liveAt[i] = true
			live++
		}
	}
	if live == n {
		if r.spreadViolatedSet(ids) {
			if moved, merr := r.improveSpreadCoded(key, ids); merr != nil {
				return RepairPartial, 0, merr
			} else if moved {
				return RepairRepaired, 1, nil
			}
		}
		return RepairHealthy, 0, nil
	}
	if live < code.K {
		return RepairLost, 0, fmt.Errorf("provider: chunk %s has %d of %d fragments, need %d to reconstruct", key, live, n, code.K)
	}
	// Read any k surviving fragments; a fragment that fails the read
	// despite the probe is demoted to missing.
	shards := make([][]byte, n)
	got := 0
	var lastErr error
	for i, id := range ids {
		if !liveAt[i] || got >= code.K {
			continue
		}
		p := r.byID(id)
		sz, lerr := p.Store().Len(key)
		if lerr == nil {
			var frag []byte
			frag, lerr = p.Store().Get(key, 0, sz)
			r.reportError(id, lerr)
			if lerr == nil {
				shards[i] = frag
				got++
				continue
			}
		}
		lastErr = lerr
		liveAt[i] = false
		live--
	}
	if got < code.K {
		if live < code.K {
			return RepairLost, 0, fmt.Errorf("provider: chunk %s has %d of %d readable fragments, need %d: %w", key, got, n, code.K, lastErr)
		}
		return RepairPartial, 0, lastErr
	}
	if rerr := code.Reconstruct(shards); rerr != nil {
		return RepairPartial, 0, rerr
	}
	exclude := make(map[ID]bool, n)
	have := make(map[string]int)
	for i, id := range ids {
		exclude[id] = true
		if liveAt[i] {
			have[r.DomainOf(id)]++
		}
	}
	newIDs := append([]ID(nil), ids...)
	var failures []error
	allocFailed := false
	for i := 0; i < n && !allocFailed; i++ {
		if liveAt[i] {
			continue
		}
		// A target whose store rejects the fragment (including
		// ErrExists — an orphan of some other position, see the
		// contract) is excluded and allocation retried, so one repair
		// call converges past flag-lagging losses. Rejections along the
		// way only count as failures if the fragment never lands.
		var fragErrs []error
		for {
			targets, aerr := r.allocateSpread(1, exclude, have)
			if aerr != nil {
				failures = append(failures, append(fragErrs, aerr)...)
				allocFailed = true
				break
			}
			p := targets[0]
			exclude[p.ID()] = true
			if werr := r.putOne(p, key, payload{data: shards[i]}); werr != nil {
				fragErrs = append(fragErrs, fmt.Errorf("provider %d (fragment %d): %w", p.ID(), i, werr))
				continue
			}
			newIDs[i] = p.ID()
			have[p.Domain()]++
			copied++
			break
		}
	}
	if copied > 0 {
		r.setPlacement(key, newIDs)
	}
	if ferr := errors.Join(failures...); ferr != nil {
		return RepairPartial, copied, ferr
	}
	return RepairRepaired, copied, nil
}

// improveSpreadCoded relocates one fragment of a full-degree coded
// chunk from its most crowded failure domain into an uncovered one:
// copy the fragment to a fresh provider there, delete the old copy
// (best effort — a failed delete leaves an orphan fragment outside
// placement, which blocks nothing: repair never reuses a provider
// already holding the key), and swap the position's entry. moved is
// false when no uncovered live domain has a spare provider. Caller
// holds the chunk's in-flight claim.
func (r *Router) improveSpreadCoded(key chunk.Key, ids []ID) (moved bool, err error) {
	exclude := make(map[ID]bool, len(ids))
	have := make(map[string]int, len(ids))
	for _, id := range ids {
		exclude[id] = true
		have[r.DomainOf(id)]++
	}
	targets, aerr := r.allocateSpread(1, exclude, have)
	if aerr != nil {
		return false, nil // no spare provider at all; degree is intact
	}
	target := targets[0]
	if have[target.Domain()] > 0 {
		return false, nil // every uncovered domain is down or exhausted
	}
	idx := -1
	for i := len(ids) - 1; i >= 0; i-- {
		if have[r.DomainOf(ids[i])] >= 2 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false, nil
	}
	p := r.byID(ids[idx])
	if p == nil || p.Down() {
		return false, nil
	}
	sz, err := p.Store().Len(key)
	if err != nil {
		return false, err
	}
	frag, err := p.Store().Get(key, 0, sz)
	r.reportError(ids[idx], err)
	if err != nil {
		return false, err
	}
	if werr := r.putOne(target, key, payload{data: frag}); werr != nil {
		return false, werr
	}
	derr := p.Store().Delete(key)
	r.reportError(ids[idx], derr)
	newIDs := append([]ID(nil), ids...)
	newIDs[idx] = target.ID()
	r.setPlacement(key, newIDs)
	return true, nil
}
