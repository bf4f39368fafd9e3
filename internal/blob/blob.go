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
// synchronization at all; when a data provider is down it fails over
// to the surviving replicas recorded in each chunk ref.
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
// hold a copy — which writers record in metadata (chunk.Ref.Replicas)
// so readers can fail over across copies; GetFrom is the replica-aware
// read that tries that set first. When the hinted set could not serve
// the read (stale after a repair moved the copies) GetFrom serves from
// authoritative placement instead and returns the current replica set
// as fresh; the blob caches it so later reads skip the dead hint.
type DataService interface {
	Put(key chunk.Key, data []byte) ([]provider.ID, error)
	Get(key chunk.Key, off, length int64) ([]byte, error)
	GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) (data []byte, fresh []provider.ID, err error)
}

var _ DataService = (*provider.Router)(nil)

// intoGetter is what a DataService may implement beside its interface:
// GetFrom into the caller's buffer — exactly len(dst) bytes at off of the
// chunk, none written past them.
type intoGetter interface {
	GetInto(dst []byte, replicas []provider.ID, key chunk.Key, off int64) (fresh []provider.ID, err error)
}

// ChunkRead is one read of a list handed to a data service's GetManyInto:
// fill Dst with the len(Dst) bytes at Off of chunk Key, trying Replicas
// first. The service sets Fresh where GetFrom would return a fresh set.
type ChunkRead struct {
	Dst      []byte
	Replicas []provider.ID
	Key      chunk.Key
	Off      int64

	Fresh []provider.ID
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
	// GetManyInto performs every read of the list; the error is the first
	// in list order, after which no Dst holds anything of use.
	GetManyInto(reads []ChunkRead) error
}

// Services bundles the service endpoints a client talks to.
type Services struct {
	VM   VersionService
	Meta segtree.NodeStore
	Data DataService

	// Cache, when set, is the deployment's shared read cache
	// (cluster.Env.ReadCache wires the router's): blob handles consult
	// it for fresh replica-set hints, so a hint corrected by one handle
	// benefits every handle, and the router invalidates it on placement
	// changes. When nil each handle falls back to a small private
	// hint-only cache — still bounded, unlike the per-handle map it
	// replaced, but invalidated only by capacity.
	Cache *provider.ReadCache
}

// privateHintCacheBytes bounds the per-handle fallback hint cache used
// when no shared cache is wired: a few thousand hint entries, enough
// for a handle's working set, nothing like the old unbounded map.
const privateHintCacheBytes = 256 << 10

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

	// hints caches fresh replica sets learned from stale-hint reads:
	// metadata refs are immutable, so after a repair moves a chunk's
	// copies the ref's replica list goes stale forever. The first read
	// through a stale hint falls back to the placement map and returns
	// the current set; caching it makes every later read of the same
	// chunk go straight to the live copies. Either the shared
	// Services.Cache (placement-invalidated) or a private bounded
	// hint-only cache.
	hints *provider.ReadCache
}

// WriteOptions tunes one write call.
type WriteOptions struct {
	// NoWait returns as soon as the snapshot is complete, without
	// waiting for in-order publication. The returned version may then
	// not be visible to readers yet (eventual read-your-writes).
	NoWait bool
	// Pipelined overlaps chunk upload with segment-tree construction:
	// inner metadata nodes are stored while the first chunks are still
	// in flight, and each leaf is stored as soon as the chunks covering
	// it land (segtree.Builder), instead of store-all-then-build. Same
	// atomicity and publication semantics — the version is invisible
	// until Complete — but large writes hide most of the metadata
	// latency behind the uploads.
	Pipelined bool
	// Window bounds in-flight chunk stores in pipelined mode (<= 0
	// means DefaultWindow). The window is what keeps memory and
	// provider queueing bounded while still keeping the upload pipe
	// full.
	Window int
}

// DefaultWindow is the pipelined write path's default in-flight chunk
// bound, and — times the page size — the read path's bound on fragment
// bytes in flight.
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
	hints := svc.Cache
	if hints == nil {
		hints = provider.NewReadCache(provider.ReadCacheConfig{
			Shards:   4,
			MaxBytes: privateHintCacheBytes,
		})
	}
	nodes := segtree.NewNodeCache(svc.Meta, nodeCacheEntries)
	data, ok := svc.Data.(chunkBatcher)
	if !ok {
		each := eachChunk{svc: svc.Data, window: DefaultWindow * geo.Page}
		each.into, _ = svc.Data.(intoGetter)
		data = each
	}
	return &Blob{
		svc:   svc,
		id:    id,
		geo:   geo,
		tree:  &segtree.Tree{Blob: id, Geo: geo, Store: nodes},
		data:  data,
		nodes: nodes,
		hints: hints,
	}
}

// NodeCacheStats reports the handle's tree-node cache counters.
func (b *Blob) NodeCacheStats() segtree.NodeCacheStats { return b.nodes.Stats() }

// FreshHint returns the cached fresh replica set for a chunk whose
// metadata hint was observed stale, if any.
func (b *Blob) FreshHint(key chunk.Key) ([]provider.ID, bool) {
	return b.hints.Hint(key)
}

// cacheHint records a fresh replica set for a stale-hinted chunk.
func (b *Blob) cacheHint(key chunk.Key, ids []provider.ID) {
	b.hints.FillHint(key, ids)
}

// ID returns the blob identifier.
func (b *Blob) ID() uint64 { return b.id }

// Geometry returns the blob's tree geometry.
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

	// Steps 2+3: store page-aligned chunks across the data providers
	// and build the shadowed metadata — sequentially by default,
	// overlapped when the write is pipelined.
	var root segtree.NodeKey
	if opts.Pipelined {
		var dirty bool
		root, dirty, err = b.writePipelined(tk, vec, opts.Window)
		if err != nil {
			if dirty {
				// The builder already stored nodes under this ticket; a
				// tombstone build would collide with them, so retire via
				// Abort directly.
				_ = b.svc.VM.Abort(b.id, tk.Version)
			} else {
				b.retireTicket(tk, norm)
			}
			return 0, err
		}
	} else {
		placed, err := b.storeChunks(tk.Version, vec)
		if err != nil {
			b.retireTicket(tk, norm)
			return 0, err
		}
		root, err = b.tree.Build(tk.Version, placed, tk.Borrows)
		if err != nil {
			b.retireTicket(tk, norm)
			return 0, err
		}
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
// stalled. If even the tombstone cannot be written (metadata service
// unreachable), the ticket is aborted at the version manager, which at
// least unblocks publication.
func (b *Blob) retireTicket(tk vmanager.Ticket, touched extent.List) {
	root, err := b.tree.BuildEmpty(tk.Version, touched, tk.Borrows)
	if err == nil {
		err = b.svc.VM.Complete(b.id, tk.Version, root)
	}
	if err != nil {
		// Last resort; see vmanager.Abort for the residual caveats.
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
	ids, err := b.data.PutMany(keys, data)
	if err != nil {
		return nil, fmt.Errorf("blob: store chunks: %w", err)
	}
	placed := make([]segtree.Placed, len(pieces))
	for i, p := range pieces {
		placed[i] = segtree.Placed{Ext: p.ext, Ref: placedRef(keys[i], p.ext.Length, ids[i])}
	}
	return placed, nil
}

// placedRef is the reference a tree leaf records for a whole chunk just
// stored on ids.
func placedRef(key chunk.Key, length int64, ids []provider.ID) chunk.Ref {
	replicas := make([]uint32, len(ids))
	for j, id := range ids {
		replicas[j] = uint32(id)
	}
	return chunk.Ref{Key: key, Offset: 0, Length: length, Replicas: replicas}
}

// writePipelined is the overlapped form of storeChunks + tree.Build:
// a segtree.Builder plans the whole tree up front and stores inner
// nodes immediately, while chunk uploads proceed under a bounded
// in-flight window, each completed upload releasing its tree leaf. The
// returned dirty flag reports whether any metadata node was stored
// under the ticket — it decides between tombstone retirement and Abort
// on failure (see WriteList).
func (b *Blob) writePipelined(tk vmanager.Ticket, vec extent.Vec, window int) (root segtree.NodeKey, dirty bool, err error) {
	pieces := b.splitPieces(vec)
	exts := make([]extent.Extent, len(pieces))
	for i, p := range pieces {
		exts[i] = p.ext
	}
	builder, err := b.tree.NewBuilder(tk.Version, exts, tk.Borrows)
	if err != nil {
		return segtree.NodeKey{}, false, err
	}
	if window <= 0 {
		window = DefaultWindow
	}
	if window > len(pieces) {
		window = len(pieces)
	}
	sem := make(chan struct{}, window)
	errs := make(chan error, len(pieces))
	var wg sync.WaitGroup
	for i, p := range pieces {
		wg.Add(1)
		go func(i int, p piece) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			key := chunk.Key{Blob: b.id, Version: tk.Version, Index: uint32(i)}
			ids, perr := b.svc.Data.Put(key, p.data)
			if perr != nil {
				errs <- perr
				return
			}
			builder.SetPiece(i, placedRef(key, p.ext.Length, ids))
		}(i, p)
	}
	wg.Wait()
	close(errs)
	storeErr := <-errs
	// Finish drains the builder's in-flight node stores either way; on
	// the failure path some leaves never completed and were never
	// attempted — only what WAS attempted matters for Dirty.
	root, buildErr := builder.Finish()
	dirty = builder.Dirty()
	if storeErr != nil {
		return segtree.NodeKey{}, dirty, fmt.Errorf("blob: store chunks: %w", storeErr)
	}
	if buildErr != nil {
		return segtree.NodeKey{}, dirty, buildErr
	}
	return root, dirty, nil
}

// WaitPublished blocks until version v is published, making it visible
// to ReadLatest. Pipelined writers use this to flush a train of NoWait
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
// as one list operation; each one's slice of out is clipped, so no
// implementation can reach a neighbour's bytes. A fragment that lands in
// pieces or more than once is fetched and copied.
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
			dst := out[c[0].dst : c[0].dst+c[0].n : c[0].dst+c[0].n]
			whole = append(whole, ChunkRead{Dst: dst, Replicas: b.replicasOf(f.Ref), Key: f.Ref.Key, Off: f.Ref.Offset})
		} else {
			scattered = append(scattered, i)
		}
	}
	err = b.data.GetManyInto(whole)
	if err == nil {
		for _, r := range whole {
			if r.Fresh != nil {
				b.cacheHint(r.Key, r.Fresh)
			}
		}
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
	d, fresh, err := getExact(b.svc.Data, b.replicasOf(f.Ref), f.Ref)
	if err != nil {
		return err
	}
	for _, c := range copies {
		copy(out[c.dst:c.dst+c.n], d[c.src:])
	}
	if fresh != nil {
		b.cacheHint(f.Ref.Key, fresh)
	}
	return nil
}

// replicasOf is the replica set to try first for a fragment. Refs carry
// the set recorded at write time: the data service fails over across
// those copies when a provider is down, falling back to the router's
// placement map when the hint has gone stale (a repair moved the
// copies). A cached fresh hint from an earlier stale read overrides the
// metadata hint, and any newly learned fresh set is cached for next
// time.
func (b *Blob) replicasOf(ref chunk.Ref) []provider.ID {
	if fresh, ok := b.FreshHint(ref.Key); ok {
		return fresh
	}
	replicas := make([]provider.ID, len(ref.Replicas))
	for j, id := range ref.Replicas {
		replicas[j] = provider.ID(id)
	}
	return replicas
}

// getExact is GetFrom held to its length: a fragment that comes back
// shorter or longer than its ref fails the read and names the chunk.
func getExact(svc DataService, replicas []provider.ID, ref chunk.Ref) ([]byte, []provider.ID, error) {
	d, fresh, err := svc.GetFrom(replicas, ref.Key, ref.Offset, ref.Length)
	if err == nil && int64(len(d)) != ref.Length {
		err = fmt.Errorf("chunk %v: got %d bytes at offset %d, want %d", ref.Key, len(d), ref.Offset, ref.Length)
	}
	return d, fresh, err
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
	into   intoGetter // svc's GetInto, if it has one
	window int64      // bytes a list of reads keeps in flight
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
// destinations — a service without GetInto returns each fragment in a
// buffer of its own — is that of DefaultWindow pages however long the
// list, while a list of many small reads puts enough of them in flight
// for a data wire to carry several per round trip.
func (e eachChunk) GetManyInto(reads []ChunkRead) error {
	return windowed(e.window, len(reads),
		func(i int) int64 { return int64(len(reads[i].Dst)) },
		func(i int) (err error) {
			r := &reads[i]
			if e.into != nil {
				r.Fresh, err = e.into.GetInto(r.Dst, r.Replicas, r.Key, r.Off)
				return err
			}
			var d []byte
			d, r.Fresh, err = getExact(e.svc, r.Replicas, chunk.Ref{Key: r.Key, Offset: r.Off, Length: int64(len(r.Dst))})
			copy(r.Dst, d)
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

// ChunkRefs enumerates the chunk references a published snapshot is
// assembled from, by resolving its metadata over the full snapshot
// extent. The background scrubber walks these to verify that every
// chunk a published version depends on still has its full replica set.
func (b *Blob) ChunkRefs(version uint64) ([]chunk.Ref, error) {
	info, err := b.svc.VM.Snapshot(b.id, version)
	if err != nil {
		return nil, err
	}
	if info.Size == 0 {
		return nil, nil
	}
	frags, _, err := b.tree.Resolve(info.Root, extent.List{{Offset: 0, Length: info.Size}})
	if err != nil {
		return nil, err
	}
	refs := make([]chunk.Ref, 0, len(frags))
	for _, f := range frags {
		refs = append(refs, f.Ref)
	}
	return refs, nil
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
