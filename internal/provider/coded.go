package provider

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

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
//     fragments it touches (no decode); a stream read hands out the
//     stores' own readers. When one of those is flagged away or fails,
//     the read degrades: it fetches the surviving data fragments plus
//     one parity fragment per missing one into a pooled slab, and
//     rebuilds only the missing data fragments the range covers, in
//     place. They count as locality-flat: fragments are spread across
//     domains by design, so a "local read" of one chunk does not exist.
//   - A stripe starts at a key-derived position of its spread (see
//     allocate): a lost domain holds a data fragment of k in k+m chunks.
//   - Repair re-encodes: it reads any k surviving fragments, rebuilds
//     the missing positions, and writes each one to a fresh provider
//     in-position, preferring failure domains the survivors do not
//     cover. Fewer than k survivors is data loss (RepairLost).
//   - A spread move copies one fragment into an uncovered domain and
//     then evicts the old holder. A failed eviction undoes the move:
//     the new copy is deleted again and the repair returns the error,
//     so no fragment is left outside placement without an error naming
//     it (DeleteReplicas reclaims only what placement names).
//
// Mode selection is boot-time configuration: switching a router with
// recorded placement between replicated and coded modes is not
// supported (existing entries would be misread under the other mode's
// semantics).
type coded struct{ code *chunk.RSCode }

func (c coded) width() int               { return c.code.K + c.code.M }
func (c coded) floor() int               { return c.code.K }
func (c coded) coding() (int, int, bool) { return c.code.K, c.code.M, true }
func (c coded) copies() bool             { return false }

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

// decode re-encodes: the k fragments repair read rebuild the others.
func (c coded) decode(read [][]byte) ([][]byte, error) {
	return read, c.code.Reconstruct(read)
}

// holes keeps every position where it is: a dead one is refilled in
// place, and stays recorded while it cannot be.
func (c coded) holes(ids []ID, live []bool) (rec []ID, fill []int) {
	for i := range ids {
		if !live[i] {
			fill = append(fill, i)
		}
	}
	return slices.Clone(ids), fill
}

// read serves a coded read from placement (readCoded).
func (c coded) read(r *Router, ids []ID, q chunkRead) (out served, skips, storeErrs int, err error) {
	out, skips, storeErrs, err = r.readCoded(c.code, ids, q)
	if err == nil {
		r.met.getFlat.Inc()
	}
	return out, skips, storeErrs, err
}

// liveStore is the store of provider id, or nil when the provider is
// flagged down or unknown: a fragment read skips it without a store call.
func (r *Router) liveStore(id ID) chunk.Store {
	if p := r.byID(id); p != nil && !p.Down() {
		return p.Store()
	}
	return nil
}

// readFragment reads len(buf) bytes at off of the fragment provider id
// holds, straight from its store into buf, and reports the store's
// answer to the health monitor. A flagged or unknown provider is
// ErrProviderDown without a store call.
func (r *Router) readFragment(id ID, key chunk.Key, off int64, buf []byte) error {
	s := r.liveStore(id)
	if s == nil {
		return ErrProviderDown
	}
	rc, err := s.OpenReader(key, off, int64(len(buf)))
	if err == nil {
		_, err = io.ReadFull(rc, buf)
		rc.Close()
	}
	r.reportError(id, err)
	return err
}

// span is the part [flo, fhi) of data fragment i, ss bytes long, that
// the chunk range [off, off+length) covers.
func span(i int, ss, off, length int64) (flo, fhi int64) {
	return max(off-int64(i)*ss, 0), min(off+length-int64(i)*ss, ss)
}

// readCoded serves one coded sub-range read from the positional set
// ids. The direct path reads only the data fragments the range touches:
// a byte read each straight into its place in the reply, a stream read
// each as its store's own reader (openCoded). A fragment there that is
// flagged away (skips, checked before anything is fetched) or fails
// (storeErrs) makes it a degraded read, assembled in a slab from the
// pool: every surviving data fragment read into its slot of the chunk
// image, a parity fragment per missing one into the tail, and the
// missing fragments the range covers — no others — rebuilt in their
// slots. A byte read copies its range out and returns the slab at once;
// a stream read hands out a reader over the range that returns the slab
// on Close.
//
// Slabs are not zeroed. That is sound because every byte served from one
// was either read whole from a store or rebuilt by ReconstructData, which
// clears what it fills first; a slot that neither happened to — a missing
// fragment the range does not cover, a parity slot never read — lies
// outside the range.
func (r *Router) readCoded(code *chunk.RSCode, ids []ID, q chunkRead) (out served, skips, storeErrs int, err error) {
	k, n := code.K, code.K+code.M
	key, off, length := q.key, q.off, q.length
	if len(ids) != n {
		return served{}, 0, 0, fmt.Errorf("provider: coded placement of %s has %d positions, want %d", key, len(ids), n)
	}
	if off < 0 || length < 0 {
		return served{}, 0, 0, fmt.Errorf("provider: invalid coded read [%d, %d) of %s", off, off+length, key)
	}
	if length == 0 {
		if q.stream {
			return served{rc: io.NopCloser(bytes.NewReader(nil))}, 0, 0, nil
		}
		return served{data: []byte{}}, 0, 0, nil
	}
	// Fragment size: all k+m fragments of a chunk are equal by
	// construction, so the first live fragment's Len is authoritative.
	ss := int64(-1)
	var lastErr error
	for _, id := range ids {
		s := r.liveStore(id)
		if s == nil {
			continue
		}
		sz, lerr := s.Len(key)
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
		return served{}, 0, 0, fmt.Errorf("provider: no readable fragment of %s: %w", key, lastErr)
	}
	if off+length > int64(k)*ss {
		return served{}, 0, 0, fmt.Errorf("provider: coded read [%d, %d) of %s exceeds chunk bound %d", off, off+length, key, int64(k)*ss)
	}
	lo, hi := int(off/ss), int((off+length-1)/ss)
	for i := lo; i <= hi; i++ {
		if r.liveStore(ids[i]) == nil {
			skips++
		}
	}
	if skips == 0 && q.stream {
		if rc, ok := r.openCoded(ids, q, ss, lo, hi); ok {
			return served{rc: rc}, 0, 0, nil
		}
		storeErrs++
	} else if skips == 0 {
		data := make([]byte, length)
		for i, at := lo, int64(0); i <= hi && storeErrs == 0; i++ {
			flo, fhi := span(i, ss, off, length)
			if r.readFragment(ids[i], key, flo, data[at:at+fhi-flo]) != nil {
				storeErrs++
			}
			at += fhi - flo
		}
		if storeErrs == 0 {
			return served{data: data}, 0, 0, nil
		}
	}
	slab := getSlab(int64(n) * ss)
	shards, fill := make([][]byte, n), make([][]byte, k)
	got := 0
	for i := 0; i < n && got < k; i++ {
		buf := slab[int64(i)*ss : int64(i+1)*ss]
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
		putSlab(slab)
		return served{}, skips, storeErrs, fmt.Errorf("provider: only %d of %d fragments of %s readable, need %d: %w",
			got, n, key, k, lastErr)
	}
	if rerr := code.ReconstructData(shards, fill); rerr != nil {
		putSlab(slab)
		return served{}, skips, storeErrs, rerr
	}
	if q.stream {
		return served{rc: newSlabReader(slab, slab[off:off+length])}, skips, storeErrs, nil
	}
	data := bytes.Clone(slab[off : off+length])
	putSlab(slab)
	return served{data: data}, skips, storeErrs, nil
}

// openCoded opens an intact stream read: the data fragments lo..hi the
// range covers, each as its store's own reader, handed out as one
// (fragmentReader) — a fragment its store keeps in memory leaves as the
// stored slice. A fragment whose store keeps it elsewhere (a disk://
// file) is read into a slab there and then, and the reply is then that
// slab whole, leaving in one write. Each fragment's answer, open and
// read together, is reported once. ok is false when one failed: what was
// opened is closed, and the read degrades.
func (r *Router) openCoded(ids []ID, q chunkRead, ss int64, lo, hi int) (rc io.ReadCloser, ok bool) {
	parts := make([]io.ReadCloser, 0, hi-lo+1) // nil where a fragment was read into slab
	var slab []byte
	fail := func() (io.ReadCloser, bool) {
		for _, part := range parts {
			if part != nil {
				part.Close()
			}
		}
		if slab != nil {
			putSlab(slab)
		}
		return nil, false
	}
	for i, at := lo, int64(0); i <= hi; i++ {
		flo, fhi := span(i, ss, q.off, q.length)
		s := r.liveStore(ids[i])
		if s == nil {
			return fail()
		}
		part, err := s.OpenReader(q.key, flo, fhi-flo)
		if _, mem := chunk.InMemory(part); err == nil && !mem {
			if slab == nil {
				slab = getSlab(q.length)
			}
			_, err = io.ReadFull(part, slab[at:at+fhi-flo])
			part.Close()
			part = nil
		}
		r.reportError(ids[i], err)
		if err != nil {
			return fail()
		}
		parts = append(parts, part)
		at += fhi - flo
	}
	if slab == nil {
		return &fragmentReader{parts: parts}, true
	}
	// The fragments whose stores do keep them in memory join the rest.
	for j, at := 0, int64(0); j < len(parts); j++ {
		flo, fhi := span(lo+j, ss, q.off, q.length)
		if parts[j] != nil {
			if _, err := io.ReadFull(parts[j], slab[at:at+fhi-flo]); err != nil {
				return fail()
			}
			parts[j].Close()
			parts[j] = nil
		}
		at += fhi - flo
	}
	return newSlabReader(slab, slab[:q.length]), true
}

// fragmentReader is an intact coded stream read: the readers of the data
// fragments it covers, in order, each one a store's reader over the
// stored bytes. AppendHeld hands over every fragment's stored slice, so
// a fragment leaves uncopied.
type fragmentReader struct {
	parts []io.ReadCloser // each a chunk.Held (chunk.InMemory)
	next  int             // the part Read and AppendHeld continue from
}

func (f *fragmentReader) Read(p []byte) (int, error) {
	for f.next < len(f.parts) {
		n, err := f.parts[f.next].Read(p)
		if err == io.EOF {
			f.next++
			err = nil
		}
		if n > 0 || err != nil || len(p) == 0 {
			return n, err
		}
	}
	return 0, io.EOF
}

func (f *fragmentReader) AppendHeld(dst [][]byte) [][]byte {
	for ; f.next < len(f.parts); f.next++ {
		dst = f.parts[f.next].(chunk.Held).AppendHeld(dst)
	}
	return dst
}

// Close closes every part, once.
func (f *fragmentReader) Close() error {
	var errs []error
	for _, part := range f.parts {
		errs = append(errs, part.Close())
	}
	f.parts = nil
	return errors.Join(errs...)
}

// slabs pools the buffers coded reads assemble replies in (readCoded,
// openCoded). A slab comes out as it went in, unzeroed.
var slabs sync.Pool

// getSlab returns n bytes of a pooled slab, or of a new one when the
// pool's is too small.
func getSlab(n int64) []byte {
	if b, ok := slabs.Get().(*[]byte); ok && int64(cap(*b)) >= n {
		return (*b)[:n]
	}
	return make([]byte, n)
}

func putSlab(b []byte) { slabs.Put(&b) }

// slabReader serves a reply assembled in a slab and returns the slab to
// the pool on its first Close; it reads nothing after.
type slabReader struct {
	bytes.Reader
	slab, reply []byte
}

func newSlabReader(slab, reply []byte) *slabReader {
	s := &slabReader{slab: slab, reply: reply}
	s.Reset(reply)
	return s
}

// AppendHeld hands over the unread part of the reply, which stays in the
// slab until Close.
func (s *slabReader) AppendHeld(dst [][]byte) [][]byte {
	if n := s.Len(); n > 0 {
		dst = append(dst, s.reply[len(s.reply)-n:])
		s.Seek(0, io.SeekEnd)
	}
	return dst
}

func (s *slabReader) Close() error {
	if s.slab != nil {
		s.Reset(nil)
		putSlab(s.slab)
		s.slab = nil
	}
	return nil
}
