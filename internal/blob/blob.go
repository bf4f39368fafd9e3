// Package blob implements the BlobSeer-equivalent versioning data
// service client: it orchestrates the version manager, the metadata
// providers and the data providers to offer versioned, striped,
// non-contiguous reads and writes of huge binary objects.
//
// A write never blocks on other writers: it stores its chunks (striped
// round-robin across data providers, R copies each when the data layer
// replicates), builds shadowed metadata using the borrow answers
// obtained with its ticket, and hands the new root to the version
// manager, which publishes snapshots strictly in ticket order. A read
// runs against one immutable published snapshot and therefore needs no
// synchronization at all; when a data provider is down the data
// service fails over to the surviving replicas its placement map
// names.
package blob

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// VersionService is the version-manager API the client depends on. It
// is implemented by *vmanager.Manager in-process and by the RPC client
// for distributed deployments.
type VersionService interface {
	CreateBlob(blob uint64, geo segtree.Geometry) error
	Geometry(blob uint64) (segtree.Geometry, error)
	AssignTicket(blob uint64, e extent.List) (vmanager.Ticket, error)
	Complete(blob, v uint64, root segtree.NodeKey) error
	Abort(blob, v uint64) error
	WaitPublished(blob, v uint64) error
	LatestPublished(blob uint64) (vmanager.SnapshotInfo, error)
	Snapshot(blob, v uint64) (vmanager.SnapshotInfo, error)
	Versions(blob uint64) ([]uint64, error)

	// Version lifecycle (vmanager/lifecycle.go): retention policy,
	// reader pins, and the garbage collector's bookkeeping.
	Retain(blob uint64, keepLast int) ([]uint64, error)
	DropVersion(blob, v uint64) error
	Pin(blob, v uint64) error
	Unpin(blob, v uint64) error
	GCInfo(blob uint64) (vmanager.GCInfo, error)
	MarkReclaimed(blob, v uint64) error
}

var (
	_ VersionService = (*vmanager.Manager)(nil)
	_ VersionService = (*vmanager.Sharded)(nil)
)

// DataService is the data-provider API: store and fetch immutable
// chunks. Implemented by *provider.Router in-process and by the RPC
// client remotely. Put returns the replica set — the providers that
// hold a copy; Get reads from the set the service's placement map names
// at that moment, the one answer to where a chunk lives, so metadata
// records none.
type DataService interface {
	Put(key chunk.Key, data []byte) ([]provider.ID, error)
	Get(key chunk.Key, off, length int64) ([]byte, error)
	// Deprecated: GetFrom is Get; implementations ignore replicas and
	// return fresh == nil.
	GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) (data []byte, fresh []provider.ID, err error)
}

var _ DataService = (*provider.Router)(nil)

// ChunkRead is one read of a list handed to a data service's GetManyInto:
// fill the Length bytes of the list's destination at At with the bytes at
// Off of chunk Key.
type ChunkRead struct {
	Key    chunk.Key
	Off    int64
	At     int64
	Length int64
}

// chunkBatcher is what a DataService may implement beside its interface:
// a write's chunks, and the fragments of a read that land whole in one
// place, as one list operation each, for a service that can carry the
// list as a unit (the framed client sends it as a few trains). A handle
// drives its data service through these two methods alone — the
// service's own, or eachChunk's, chosen once in newBlob.
type chunkBatcher interface {
	// PutMany stores data[i] as chunk keys[i] and returns the replica
	// sets. Every put is attempted; the error is the first in key order.
	PutMany(keys []chunk.Key, data [][]byte) ([][]provider.ID, error)
	// GetManyInto performs every read of the list into dst; the error is
	// the first in list order, after which no read's bytes are of use.
	// Reads that fill consecutive bytes of dst may travel as one.
	GetManyInto(dst []byte, reads []ChunkRead) error
}

// Services bundles the service endpoints a client talks to.
type Services struct {
	VM   VersionService
	Meta segtree.NodeStore
	Data DataService
}

// nodeCacheEntries bounds the per-handle cache of immutable tree nodes
// (segtree.NodeCache): a few trees' worth of root paths and leaves, on
// the order of a megabyte when full.
const nodeCacheEntries = 4096

// Blob is a handle to one versioned binary object.
type Blob struct {
	svc  Services
	id   uint64
	geo  segtree.Geometry
	tree *segtree.Tree // reads and writes svc.Meta through nodes
	data chunkBatcher  // svc.Data's list operations

	// nodes caches the immutable tree nodes this handle has fetched or
	// stored, so a read goes to the metadata service only for nodes it
	// has never seen.
	nodes *segtree.NodeCache
}

// WriteOptions tunes one write call.
type WriteOptions struct {
	// NoWait returns as soon as the snapshot is complete, without
	// waiting for in-order publication. The returned version may then
	// not be visible to readers yet (eventual read-your-writes).
	NoWait bool
	// Deprecated: ignored — every write stores its chunks as one list,
	// then its tree as one list.
	Pipelined bool
}

// DefaultWindow, times the page size, bounds the fragment bytes a read
// keeps in flight.
const DefaultWindow = 8

// maxReadFragments caps the fragments one read keeps in flight however
// small they are, so a read of tiny fragments does not put a goroutine
// and a data-service call behind every one of them at once.
const maxReadFragments = 64

// Create registers a new blob with the given geometry and returns its
// handle.
func Create(svc Services, id uint64, geo segtree.Geometry) (*Blob, error) {
	if err := svc.VM.CreateBlob(id, geo); err != nil {
		return nil, err
	}
	return newBlob(svc, id, geo), nil
}

// Open returns a handle to an existing blob.
func Open(svc Services, id uint64) (*Blob, error) {
	geo, err := svc.VM.Geometry(id)
	if err != nil {
		return nil, err
	}
	return newBlob(svc, id, geo), nil
}

func newBlob(svc Services, id uint64, geo segtree.Geometry) *Blob {
	nodes := segtree.NewNodeCache(svc.Meta, nodeCacheEntries)
	data, ok := svc.Data.(chunkBatcher)
	if !ok {
		data = eachChunk{svc: svc.Data, window: DefaultWindow * geo.Page}
	}
	return &Blob{
		svc:   svc,
		id:    id,
		geo:   geo,
		tree:  &segtree.Tree{Blob: id, Geo: geo, Store: nodes},
		data:  data,
		nodes: nodes,
	}
}

// NodeCacheStats reports the handle's tree-node cache counters.
// Public through repro.Store.Backend().Blob();
// TestReaderFollowsWriterThroughNodeCache and, in internal/remote,
// TestWalkCostsOneRoundTrip read it.
func (b *Blob) NodeCacheStats() segtree.NodeCacheStats { return b.nodes.Stats() }

// ID returns the blob identifier.
func (b *Blob) ID() uint64 { return b.id }

// Geometry returns the blob's tree geometry.
// Public through repro.Store.Backend().Blob().
func (b *Blob) Geometry() segtree.Geometry { return b.geo }

// WriteList atomically writes a non-contiguous vector of extents,
// producing one new snapshot, and returns its version. This is the
// primitive the paper adds to the storage backend: the whole vector is
// applied as a single transaction, so concurrent overlapping WriteList
// calls never interleave within the overlap (MPI atomicity).
func (b *Blob) WriteList(vec extent.Vec, opts WriteOptions) (uint64, error) {
	norm := vec.Extents.Normalize()
	if int64(len(vec.Buf)) != vec.Extents.TotalLength() {
		return 0, fmt.Errorf("blob: buffer length %d != extent total %d", len(vec.Buf), vec.Extents.TotalLength())
	}
	if norm.TotalLength() != vec.Extents.TotalLength() {
		return 0, errors.New("blob: write extents overlap each other")
	}
	if len(norm) == 0 {
		return 0, vmanager.ErrEmptyWrite
	}

	// Step 1: ticket + borrow answers (the only serialized step).
	tk, err := b.svc.VM.AssignTicket(b.id, norm)
	if err != nil {
		return 0, err
	}

	// Steps 2+3: store page-aligned chunks across the data providers,
	// then build the shadowed metadata. No node is put before every chunk
	// and predecessor look-up has succeeded, so a failure here leaves the
	// ticket free for its tombstone.
	placed, err := b.storeChunks(tk.Version, vec)
	if err != nil {
		b.retireTicket(tk, norm)
		return 0, err
	}
	root, err := b.tree.Build(tk.Version, placed, tk.Borrows)
	if err != nil {
		b.retireTicket(tk, norm)
		return 0, err
	}

	// Step 4: hand the snapshot to the version manager for in-order
	// publication.
	if err := b.svc.VM.Complete(b.id, tk.Version, root); err != nil {
		return 0, err
	}
	if !opts.NoWait {
		if err := b.svc.VM.WaitPublished(b.id, tk.Version); err != nil {
			return 0, err
		}
	}
	return tk.Version, nil
}

// Write is the contiguous convenience form of WriteList.
func (b *Blob) Write(off int64, data []byte, opts WriteOptions) (uint64, error) {
	vec, err := extent.NewVec(extent.List{{Offset: off, Length: int64(len(data))}}, data)
	if err != nil {
		return 0, err
	}
	return b.WriteList(vec, opts)
}

// retireTicket cleans up after a failed write: it publishes tombstone
// metadata (an empty overlay) under the ticket so that later writers'
// borrow references to this version resolve and publication is not
// stalled. When the metadata service refuses the tombstone the ticket is
// aborted at the version manager instead (see vmanager.Abort for what
// that leaves a concurrent borrower). That happens when it refuses the
// write's whole node list and the tombstone, and also when the node list
// failed partway: the leaves already stored under the ticket differ from
// the tombstone's, and a stored node is never overwritten.
func (b *Blob) retireTicket(tk vmanager.Ticket, touched extent.List) {
	root, err := b.tree.BuildEmpty(tk.Version, touched, tk.Borrows)
	if err == nil {
		err = b.svc.VM.Complete(b.id, tk.Version, root)
	}
	if err != nil {
		_ = b.svc.VM.Abort(b.id, tk.Version)
	}
}

// piece is one page-aligned slice of a write vector: a stripe unit,
// stored as one chunk and referenced by one tree leaf.
type piece struct {
	ext  extent.Extent
	data []byte
}

// splitPieces cuts the write vector at page boundaries so each piece
// maps to one stripe unit / tree leaf.
func (b *Blob) splitPieces(vec extent.Vec) []piece {
	var pieces []piece
	var start int64
	for _, e := range vec.Extents {
		data := vec.Buf[start : start+e.Length]
		start += e.Length
		off := e.Offset
		for len(data) > 0 {
			boundary := (off/b.geo.Page + 1) * b.geo.Page
			n := int64(len(data))
			if boundary-off < n {
				n = boundary - off
			}
			pieces = append(pieces, piece{ext: extent.Extent{Offset: off, Length: n}, data: data[:n]})
			off += n
			data = data[n:]
		}
	}
	return pieces
}

// storeChunks splits the write into page-aligned pieces, stores each as
// one immutable chunk — all pieces as one list operation — and returns
// the placement list sorted by offset.
func (b *Blob) storeChunks(version uint64, vec extent.Vec) ([]segtree.Placed, error) {
	pieces := b.splitPieces(vec)
	keys := make([]chunk.Key, len(pieces))
	data := make([][]byte, len(pieces))
	for i, p := range pieces {
		keys[i] = chunk.Key{Blob: b.id, Version: version, Index: uint32(i)}
		data[i] = p.data
	}
	if _, err := b.data.PutMany(keys, data); err != nil {
		return nil, fmt.Errorf("blob: store chunks: %w", err)
	}
	placed := make([]segtree.Placed, len(pieces))
	for i, p := range pieces {
		placed[i] = segtree.Placed{Ext: p.ext, Ref: chunk.Ref{Key: keys[i], Length: p.ext.Length}}
	}
	return placed, nil
}

// WaitPublished blocks until version v is published, making it visible
// to ReadLatest. A writer uses this to flush a train of NoWait
// writes with one wait on the train's last version (publication is in
// ticket order, so waiting on the last covers them all).
func (b *Blob) WaitPublished(v uint64) error {
	return b.svc.VM.WaitPublished(b.id, v)
}

// ReadList atomically reads a non-contiguous vector of extents from the
// snapshot with the given version, filling and returning a buffer laid
// out in list order. Unwritten bytes read as zero.
func (b *Blob) ReadList(version uint64, q extent.List) ([]byte, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	info, err := b.svc.VM.Snapshot(b.id, version)
	if err != nil {
		return nil, err
	}
	return b.readSnapshot(info, q)
}

// readSnapshot serves a list-read from a snapshot the version manager
// has vouched for: one tree walk, then every fragment fetched into the
// returned buffer.
//
// A fragment that lands whole in one place — every fragment of a sorted,
// disjoint query — is read straight into that place, all such fragments
// as one list operation naming out and each one's offset in it, so a
// run of fragments that fill consecutive bytes of out can be read as
// one. A fragment that lands in pieces or more than once is fetched and
// copied.
func (b *Blob) readSnapshot(info vmanager.SnapshotInfo, q extent.List) ([]byte, error) {
	// Resolve normalizes the query; the caller's (possibly overlapping /
	// unsorted) layout is restored by the scatter plan.
	frags, _, err := b.tree.Resolve(info.Root, q)
	if err != nil {
		return nil, err
	}
	// out is fresh, so holes read as zero without being touched.
	out := make([]byte, q.TotalLength())
	plan := scatterPlan(q, frags)

	whole := make([]ChunkRead, 0, len(frags))
	var scattered []int // indexes into frags
	for i, f := range frags {
		if c := plan[i]; len(c) == 1 && c[0].src == 0 && c[0].n == f.Ref.Length {
			whole = append(whole, ChunkRead{Key: f.Ref.Key, Off: f.Ref.Offset, At: c[0].dst, Length: c[0].n})
		} else {
			scattered = append(scattered, i)
		}
	}
	err = b.data.GetManyInto(out, whole)
	if err == nil {
		// Each copied fragment lives in a buffer of its own until it is laid
		// out: those are fetched under the window.
		err = windowed(DefaultWindow*b.geo.Page, len(scattered),
			func(j int) int64 { return frags[scattered[j]].Ref.Length },
			func(j int) error { return b.fetchAndCopy(out, frags[scattered[j]], plan[scattered[j]]) })
	}
	if err != nil {
		return nil, fmt.Errorf("blob: fetch chunks: %w", err)
	}
	return out, nil
}

// fetchAndCopy fetches one fragment and lays it out in out, once per
// copy.
func (b *Blob) fetchAndCopy(out []byte, f segtree.Fragment, copies []scatterCopy) error {
	d, err := getExact(b.svc.Data, f.Ref)
	if err != nil {
		return err
	}
	for _, c := range copies {
		copy(out[c.dst:c.dst+c.n], d[c.src:])
	}
	return nil
}

// getExact is Get held to its length: a fragment that comes back
// shorter or longer than its ref fails the read and names the chunk.
func getExact(svc DataService, ref chunk.Ref) ([]byte, error) {
	d, err := svc.Get(ref.Key, ref.Offset, ref.Length)
	if err == nil && int64(len(d)) != ref.Length {
		err = fmt.Errorf("chunk %v: got %d bytes at offset %d, want %d", ref.Key, len(d), ref.Offset, ref.Length)
	}
	return d, err
}

// windowed makes calls 0..n-1, each from a goroutine of its own, under a
// window of bytes: calls are admitted in order while the cost of those in
// flight stays within window — so what n fetches hold in memory at once is
// bounded however many there are, while small ones go many at a time —
// and never more than maxReadFragments together. It returns the first
// error to occur, after which it admits nothing more.
func windowed(window int64, n int, costOf func(i int) int64, call func(i int) error) error {
	var (
		mu       sync.Mutex
		freed    = sync.Cond{L: &mu}
		room     = window // bytes of the window not in flight
		inFlight int
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		// A fragment never exceeds a page; should one, it goes alone.
		cost := min(costOf(i), window)
		mu.Lock()
		for firstErr == nil && (inFlight == maxReadFragments || cost > room) {
			freed.Wait()
		}
		if firstErr != nil {
			mu.Unlock()
			break
		}
		inFlight++
		room -= cost
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := call(i)
			mu.Lock()
			inFlight--
			room += cost
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			freed.Signal()
		}()
	}
	wg.Wait()
	return firstErr
}

// eachChunk is the one per-call fallback of the data seam: it runs a list
// operation against a plain DataService as independent calls. The
// in-process provider.Router is driven this way, so every chunk still
// meets its provider's meter as one call.
type eachChunk struct {
	svc    DataService
	window int64 // bytes a list of reads keeps in flight
}

// PutMany stores every chunk at once, a goroutine each.
func (e eachChunk) PutMany(keys []chunk.Key, data [][]byte) ([][]provider.ID, error) {
	ids := make([][]provider.ID, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i], errs[i] = e.svc.Put(keys[i], data[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// GetManyInto fetches under the window: worst-case memory beside the
// destinations — each fragment comes back in a buffer of its own and is
// copied into its slice of dst — is that of DefaultWindow pages however
// long the list, while a list of many small reads puts enough of them
// in flight for a data wire to carry several per round trip.
func (e eachChunk) GetManyInto(dst []byte, reads []ChunkRead) error {
	return windowed(e.window, len(reads),
		func(i int) int64 { return reads[i].Length },
		func(i int) error {
			r := reads[i]
			d, err := getExact(e.svc, chunk.Ref{Key: r.Key, Offset: r.Off, Length: r.Length})
			copy(dst[r.At:r.At+r.Length], d)
			return err
		})
}

// scatterCopy moves n bytes from offset src of a fetched fragment to
// offset dst of the buffer returned to the caller.
type scatterCopy struct{ dst, src, n int64 }

// scatterPlan lists, per fragment, the copies that lay it out in the
// caller's buffer: every caller extent is cut against the fragments it
// intersects (frags are sorted by offset and disjoint, so a binary
// search finds the first). Caller extents may be unsorted, overlapping
// or repeated; a fragment then simply lands more than once.
func scatterPlan(q extent.List, frags []segtree.Fragment) [][]scatterCopy {
	plan := make([][]scatterCopy, len(frags))
	var dst int64
	for _, e := range q {
		i := sort.Search(len(frags), func(i int) bool { return frags[i].Ext.End() > e.Offset })
		for ; i < len(frags) && frags[i].Ext.Offset < e.End(); i++ {
			lo := max(e.Offset, frags[i].Ext.Offset)
			hi := min(e.End(), frags[i].Ext.End())
			plan[i] = append(plan[i], scatterCopy{dst: dst + lo - e.Offset, src: lo - frags[i].Ext.Offset, n: hi - lo})
		}
		dst += e.Length
	}
	return plan
}

// ReadAt is the contiguous convenience form of ReadList.
func (b *Blob) ReadAt(version uint64, off, length int64) ([]byte, error) {
	return b.ReadList(version, extent.List{{Offset: off, Length: length}})
}

// ReadLatest reads against the newest published snapshot and returns
// the data along with the version it came from.
func (b *Blob) ReadLatest(q extent.List) ([]byte, uint64, error) {
	if err := q.Validate(); err != nil {
		return nil, 0, err
	}
	info, err := b.svc.VM.LatestPublished(b.id)
	if err != nil {
		return nil, 0, err
	}
	data, err := b.readSnapshot(info, q)
	return data, info.Version, err
}

// Latest returns the newest published snapshot descriptor.
func (b *Blob) Latest() (vmanager.SnapshotInfo, error) {
	return b.svc.VM.LatestPublished(b.id)
}

// Size returns the size of the given published snapshot.
func (b *Blob) Size(version uint64) (int64, error) {
	info, err := b.svc.VM.Snapshot(b.id, version)
	if err != nil {
		return 0, err
	}
	return info.Size, nil
}

// Versions lists all published versions of the blob.
func (b *Blob) Versions() ([]uint64, error) {
	return b.svc.VM.Versions(b.id)
}

// Retain applies the retention policy: drop every published version
// older than the newest keepLast, skipping pinned versions. Returns
// the versions newly dropped (they become pending reclamation).
func (b *Blob) Retain(keepLast int) ([]uint64, error) {
	return b.svc.VM.Retain(b.id, keepLast)
}

// DropVersion removes one published version from the readable set and
// queues it for chunk reclamation. The latest version, version 0 and
// pinned versions are refused.
// Public through repro.Store.Backend().Blob(); tests in internal/blob,
// internal/core, internal/remote and internal/vmanager call it.
func (b *Blob) DropVersion(v uint64) error {
	return b.svc.VM.DropVersion(b.id, v)
}

// Pin protects a published version from retention until Unpin —
// readers holding an old snapshot open pin it so the reaper can never
// reclaim the bytes under them.
func (b *Blob) Pin(v uint64) error { return b.svc.VM.Pin(b.id, v) }

// Unpin releases one Pin.
func (b *Blob) Unpin(v uint64) error { return b.svc.VM.Unpin(b.id, v) }

// GCInfo returns the blob's version-lifecycle snapshot.
func (b *Blob) GCInfo() (vmanager.GCInfo, error) {
	return b.svc.VM.GCInfo(b.id)
}

// MarkReclaimed records that the collector finished deleting a pending
// version's exclusive chunks.
func (b *Blob) MarkReclaimed(v uint64) error {
	return b.svc.VM.MarkReclaimed(b.id, v)
}

// ExclusiveChunks computes the chunk keys referenced by the pending
// dropped version v but by no retained version — the set the reaper
// may delete. The walk (segtree.ExclusiveChunks) skips subtrees the
// dropped version shares with any retained snapshot, so the cost is
// proportional to the metadata that distinguishes it from its
// retained neighbors.
func (b *Blob) ExclusiveChunks(v uint64) ([]chunk.Key, error) {
	info, err := b.GCInfo()
	if err != nil {
		return nil, err
	}
	var root segtree.NodeKey
	found := false
	for _, p := range info.Pending {
		if p.Version == v {
			root, found = p.Root, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("%w: %d", vmanager.ErrNotPending, v)
	}
	if root.IsZero() {
		return nil, nil // empty or fully aborted snapshot
	}
	keep := make([]segtree.NodeKey, 0, len(info.Retained))
	for _, rv := range info.Retained {
		snap, err := b.svc.VM.Snapshot(b.id, rv)
		if err != nil {
			// A retained version listed at GCInfo time may have been
			// dropped since; a version that is no longer retained
			// protects nothing — its own pending entry will guard its
			// chunks — so skip it rather than fail the walk.
			if errors.Is(err, vmanager.ErrVersionDropped) {
				continue
			}
			return nil, err
		}
		if !snap.Root.IsZero() {
			keep = append(keep, snap.Root)
		}
	}
	return b.tree.ExclusiveChunks(root, keep)
}

// Diff returns the byte ranges whose contents may differ between two
// published snapshots, at a cost proportional to the changed metadata
// (shared subtrees are skipped thanks to shadowing). Conservative:
// every changed byte is reported; reported bytes may compare equal if
// rewritten with identical data.
func (b *Blob) Diff(va, vb uint64) (extent.List, error) {
	ia, err := b.svc.VM.Snapshot(b.id, va)
	if err != nil {
		return nil, err
	}
	ib, err := b.svc.VM.Snapshot(b.id, vb)
	if err != nil {
		return nil, err
	}
	return b.tree.Diff(ia.Root, ib.Root)
}
