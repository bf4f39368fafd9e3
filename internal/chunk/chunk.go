// Package chunk implements the immutable chunk stores that hold blob
// data. Chunks are write-once: a writer stores the data of one update
// under a key derived from (blob, version ticket, index) and metadata
// then references sub-ranges of those chunks. Because chunks are never
// modified, readers need no synchronization against writers — the
// property the paper's versioning scheme relies on.
package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/iosim"
)

// Key identifies one immutable chunk.
type Key struct {
	Blob    uint64 // blob identifier
	Version uint64 // write ticket that produced the chunk
	Index   uint32 // ordinal within that write
}

// String renders the key for diagnostics and disk file names.
func (k Key) String() string {
	return fmt.Sprintf("b%d-v%d-c%d", k.Blob, k.Version, k.Index)
}

// Ref points at a sub-range of a stored chunk. Metadata leaves hold
// Refs. Replicas, when non-empty, lists the data providers that hold a
// copy of the chunk (write-time placement): readers try those first
// and fail over across them when a provider is down. An empty set
// means placement is resolved by the provider router alone
// (pre-replication refs).
type Ref struct {
	Key      Key
	Offset   int64    // offset within the chunk
	Length   int64    // number of bytes referenced
	Replicas []uint32 // provider IDs holding a copy (may be empty)
}

// EqualData reports whether two refs reference the same bytes — the
// same sub-range of the same chunk. Replica placement is ignored: a
// repair that moves copies does not change the data a ref denotes.
func (r Ref) EqualData(o Ref) bool {
	return r.Key == o.Key && r.Offset == o.Offset && r.Length == o.Length
}

// Marshal encodes the ref: a fixed 36-byte base followed, when the ref
// carries a replica set, by a count byte and 4 bytes per replica.
// Replica-less refs keep the legacy fixed 36-byte form. The replica
// set is a read hint, so encodings keep only the first 255 entries
// rather than wrapping the count byte; readers holding a truncated
// hint fall back to the router's placement map.
func (r Ref) Marshal() []byte {
	if len(r.Replicas) > 255 {
		r.Replicas = r.Replicas[:255]
	}
	n := 36
	if len(r.Replicas) > 0 {
		n += 1 + 4*len(r.Replicas)
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b[0:], r.Key.Blob)
	binary.LittleEndian.PutUint64(b[8:], r.Key.Version)
	binary.LittleEndian.PutUint32(b[16:], r.Key.Index)
	binary.LittleEndian.PutUint64(b[20:], uint64(r.Offset))
	binary.LittleEndian.PutUint64(b[28:], uint64(r.Length))
	if len(r.Replicas) > 0 {
		b[36] = byte(len(r.Replicas))
		for i, id := range r.Replicas {
			binary.LittleEndian.PutUint32(b[37+4*i:], id)
		}
	}
	return b
}

// UnmarshalRef decodes a ref written by Marshal, accepting both the
// legacy 36-byte form and the replicated form. b must hold the ref and
// nothing else.
func UnmarshalRef(b []byte) (Ref, error) {
	r, n, err := DecodeRef(b)
	if err == nil && n != len(b) {
		return Ref{}, fmt.Errorf("chunk: %d trailing bytes after a %d-byte ref", len(b)-n, n)
	}
	return r, err
}

// DecodeRef decodes the ref at the head of b and reports the bytes it
// occupies, for a ref embedded in a larger encoding: 36 when b is
// exactly the legacy form, otherwise the base, the count byte and 4
// bytes per replica. A ref that is followed by anything must therefore
// carry its count byte, zero included.
func DecodeRef(b []byte) (Ref, int, error) {
	if len(b) < 36 {
		return Ref{}, 0, fmt.Errorf("chunk: ref too short (%d bytes)", len(b))
	}
	r := Ref{
		Key: Key{
			Blob:    binary.LittleEndian.Uint64(b[0:]),
			Version: binary.LittleEndian.Uint64(b[8:]),
			Index:   binary.LittleEndian.Uint32(b[16:]),
		},
		Offset: int64(binary.LittleEndian.Uint64(b[20:])),
		Length: int64(binary.LittleEndian.Uint64(b[28:])),
	}
	if len(b) == 36 {
		return r, 36, nil
	}
	n := int(b[36])
	if len(b) < 37+4*n {
		return Ref{}, 0, fmt.Errorf("chunk: ref replica set truncated (%d bytes for %d replicas)", len(b), n)
	}
	if n > 0 {
		r.Replicas = make([]uint32, n)
		for i := range r.Replicas {
			r.Replicas[i] = binary.LittleEndian.Uint32(b[37+4*i:])
		}
	}
	return r, 37 + 4*n, nil
}

// ErrNotFound is returned when a chunk key is unknown.
var ErrNotFound = errors.New("chunk: not found")

// ErrExists is returned when a chunk key is stored twice; chunks are
// immutable so double stores indicate a protocol violation.
var ErrExists = errors.New("chunk: already exists")

// Store is the provider-side chunk repository. Chunks are immutable
// while stored, but not immortal: Delete is the space-reclamation path
// the version-lifecycle garbage collector drives once no retained
// snapshot references a chunk (see provider.Router.DeleteReplicas).
type Store interface {
	// Put stores an immutable chunk. Storing the same key twice fails
	// with ErrExists.
	Put(key Key, data []byte) error
	// Get returns length bytes starting at off within the chunk.
	Get(key Key, off, length int64) ([]byte, error)
	// Len returns the stored chunk's size, or ErrNotFound.
	Len(key Key) (int64, error)
	// Delete removes a stored chunk; deleting an absent key fails with
	// ErrNotFound. Only the garbage collector may call this, and only
	// for chunks no retained version references.
	Delete(key Key) error
	// Count returns the number of chunks held.
	Count() int
	// Usage reports the chunks held and their total payload bytes —
	// the accounting behind per-provider space reporting (bsctl usage)
	// and reclamation verification.
	Usage() (chunks int, bytes int64)
	// PutFromReader stores an immutable chunk of exactly size bytes
	// streamed from r, without requiring the caller to materialize the
	// whole payload. The write is atomic with respect to visibility: a
	// short read or mid-stream error must leave the key absent
	// (ErrNotFound from Len/Get), never a truncated chunk. Storing an
	// existing key fails with ErrExists.
	PutFromReader(key Key, size int64, r io.Reader) error
	// OpenReader returns a streaming reader over length bytes starting
	// at off within the chunk, or ErrNotFound. The caller must Close
	// it. Implementations serve from their native medium without an
	// intermediate copy where possible (DiskStore hands out the chunk
	// file itself so socket writers can splice/sendfile from it).
	OpenReader(key Key, off, length int64) (io.ReadCloser, error)
}

// MemStore is an in-memory chunk store metered by an iosim.Meter.
type MemStore struct {
	mu     sync.RWMutex
	chunks map[Key][]byte
	bytes  int64
	meter  *iosim.Meter
}

// NewMemStore builds an in-memory store. meter may be nil for unmetered
// stores (unit tests).
func NewMemStore(meter *iosim.Meter) *MemStore {
	return &MemStore{chunks: make(map[Key][]byte), meter: meter}
}

// Put implements Store.
func (s *MemStore) Put(key Key, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	_, dup := s.chunks[key]
	if !dup {
		s.chunks[key] = cp
		s.bytes += int64(len(cp))
	}
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	if s.meter != nil {
		s.meter.Charge(int64(len(data)))
	}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(key Key, off, length int64) ([]byte, error) {
	s.mu.RLock()
	data, ok := s.chunks[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || length < 0 || length > int64(len(data))-off {
		return nil, fmt.Errorf("chunk: range [%d,%d) out of bounds for %s (len %d)", off, off+length, key, len(data))
	}
	out := make([]byte, length)
	copy(out, data[off:off+length])
	if s.meter != nil {
		s.meter.Charge(length)
	}
	return out, nil
}

// Len implements Store.
func (s *MemStore) Len(key Key) (int64, error) {
	s.mu.RLock()
	data, ok := s.chunks[key]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(data)), nil
}

// Delete implements Store.
func (s *MemStore) Delete(key Key) error {
	s.mu.Lock()
	data, ok := s.chunks[key]
	if ok {
		delete(s.chunks, key)
		s.bytes -= int64(len(data))
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if s.meter != nil {
		s.meter.Charge(0)
	}
	return nil
}

// Count implements Store.
func (s *MemStore) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// Usage implements Store.
func (s *MemStore) Usage() (int, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks), s.bytes
}

// memPutPrealloc is the most a streamed put allocates on the word of its
// declared size alone. It covers every page size in use (the largest is
// 1 MiB), so a real chunk is allocated once, exactly; a larger
// declaration — the size arrives off the wire — gets its buffer only
// behind bytes that have arrived.
const memPutPrealloc = 4 << 20

// PutFromReader implements Store. The payload is buffered fully before
// the key becomes visible, so a short read never leaves a torn chunk.
func (s *MemStore) PutFromReader(key Key, size int64, r io.Reader) error {
	if size < 0 {
		return fmt.Errorf("chunk: negative size %d for %s", size, key)
	}
	s.mu.RLock()
	_, dup := s.chunks[key]
	s.mu.RUnlock()
	if dup {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	buf := make([]byte, min(size, memPutPrealloc))
	for filled := 0; ; {
		if _, err := io.ReadFull(r, buf[filled:]); err != nil {
			if err == io.EOF && filled > 0 {
				// The stream stopped exactly where the buffer was grown:
				// as short as stopping anywhere else.
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("chunk: stream %s: %w", key, err)
		}
		if filled = len(buf); int64(filled) == size {
			break
		}
		// Past the preallocation the buffer doubles, up to size: never
		// more than twice what the stream has delivered.
		grown := make([]byte, min(size, 2*int64(filled)))
		copy(grown, buf)
		buf = grown
	}
	s.mu.Lock()
	_, dup = s.chunks[key]
	if !dup {
		s.chunks[key] = buf
		s.bytes += size
	}
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	if s.meter != nil {
		s.meter.Charge(size)
	}
	return nil
}

// OpenReader implements Store. Stored chunks are immutable, so the
// reader serves the stored slice directly with no copy; a concurrent
// Delete only unlinks the key, it never mutates the bytes.
func (s *MemStore) OpenReader(key Key, off, length int64) (io.ReadCloser, error) {
	s.mu.RLock()
	data, ok := s.chunks[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || length < 0 || length > int64(len(data))-off {
		return nil, fmt.Errorf("chunk: range [%d,%d) out of bounds for %s (len %d)", off, off+length, key, len(data))
	}
	if s.meter != nil {
		s.meter.Charge(length)
	}
	return io.NopCloser(bytes.NewReader(data[off : off+length])), nil
}

// DiskStore persists each chunk as one file under a directory. It is the
// durable counterpart of MemStore and shares its metering semantics.
type DiskStore struct {
	dir   string
	sync  bool
	mu    sync.RWMutex
	known map[Key]int64 // size index to avoid stat storms
	bytes int64
	meter *iosim.Meter
}

// NewDiskStore creates (if needed) the directory and opens a store.
func NewDiskStore(dir string, meter *iosim.Meter) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("chunk: create dir: %w", err)
	}
	s := &DiskStore{dir: dir, known: make(map[Key]int64), meter: meter}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("chunk: scan dir: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		// Leftover temp files are the debris of a crash between write
		// and rename; the chunk was never visible, so remove the file
		// rather than index it.
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, ent.Name()))
			continue
		}
		var blob, ver uint64
		var idx uint32
		if _, err := fmt.Sscanf(ent.Name(), "b%d-v%d-c%d", &blob, &ver, &idx); err != nil {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		s.known[Key{Blob: blob, Version: ver, Index: idx}] = info.Size()
		s.bytes += info.Size()
	}
	return s, nil
}

func (s *DiskStore) path(key Key) string {
	return filepath.Join(s.dir, key.String())
}

// tmpPrefix marks in-flight chunk files; NewDiskStore skips and
// removes them during the rescan.
const tmpPrefix = ".tmp-"

// reserve claims key in the size index so concurrent writers of the
// same key fail fast, returning false on a duplicate.
func (s *DiskStore) reserve(key Key, size int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.known[key]; dup {
		return false
	}
	s.known[key] = size
	s.bytes += size
	return true
}

// unreserve rolls back a failed reservation.
func (s *DiskStore) unreserve(key Key, size int64) {
	s.mu.Lock()
	delete(s.known, key)
	s.bytes -= size
	s.mu.Unlock()
}

// SetSync makes every chunk write fsync before the rename. The rename
// alone already guarantees a reader never sees a truncated chunk (the
// crash-safety contract); sync additionally makes the bytes survive a
// power loss, at roughly an order of magnitude in write throughput.
// Off by default; enabled by the factory's disk://path?sync=1 form.
func (s *DiskStore) SetSync(on bool) { s.sync = on }

// writeChunk streams size bytes from r into a temp file in the store
// directory and renames it into place — the visible chunk file either
// does not exist or is complete, so a crash mid-write never leaves a
// truncated chunk a later Get would serve.
func (s *DiskStore) writeChunk(key Key, size int64, r io.Reader) error {
	f, err := os.CreateTemp(s.dir, tmpPrefix+key.String()+"-*")
	if err != nil {
		return fmt.Errorf("chunk: create temp for %s: %w", key, err)
	}
	tmp := f.Name()
	n, err := io.Copy(f, io.LimitReader(r, size))
	if err == nil && n < size {
		err = io.ErrUnexpectedEOF
	}
	if err == nil && s.sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.path(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("chunk: write %s: %w", key, err)
	}
	return nil
}

// Put implements Store. The file is written to a temp name and renamed
// into place, so a crash mid-write never leaves a truncated chunk.
func (s *DiskStore) Put(key Key, data []byte) error {
	return s.PutFromReader(key, int64(len(data)), bytes.NewReader(data))
}

// PutFromReader implements Store, streaming the payload straight to
// disk through the same temp-file + rename protocol as Put.
func (s *DiskStore) PutFromReader(key Key, size int64, r io.Reader) error {
	if size < 0 {
		return fmt.Errorf("chunk: negative size %d for %s", size, key)
	}
	if !s.reserve(key, size) {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	if err := s.writeChunk(key, size, r); err != nil {
		s.unreserve(key, size)
		return err
	}
	if s.meter != nil {
		s.meter.Charge(size)
	}
	return nil
}

// fileSection is an open chunk file restricted to a sub-range. For
// full-chunk reads OpenReader returns the *os.File itself so socket
// writers can sendfile from it; ranged reads go through a SectionReader
// over the same descriptor.
type fileSection struct {
	*io.SectionReader
	f *os.File
}

func (fs *fileSection) Close() error { return fs.f.Close() }

// OpenReader implements Store. The chunk file is served directly — no
// intermediate buffer — which lets net connections splice from it.
func (s *DiskStore) OpenReader(key Key, off, length int64) (io.ReadCloser, error) {
	s.mu.RLock()
	size, ok := s.known[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || length < 0 || length > size-off {
		return nil, fmt.Errorf("chunk: range [%d,%d) out of bounds for %s (len %d)", off, off+length, key, size)
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("chunk: open %s: %w", key, err)
	}
	if s.meter != nil {
		s.meter.Charge(length)
	}
	if off == 0 && length == size {
		return f, nil
	}
	return &fileSection{SectionReader: io.NewSectionReader(f, off, length), f: f}, nil
}

// Get implements Store.
func (s *DiskStore) Get(key Key, off, length int64) ([]byte, error) {
	s.mu.RLock()
	size, ok := s.known[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || length < 0 || length > size-off {
		return nil, fmt.Errorf("chunk: range [%d,%d) out of bounds for %s (len %d)", off, off+length, key, size)
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, fmt.Errorf("chunk: open %s: %w", key, err)
	}
	defer f.Close()
	out := make([]byte, length)
	if _, err := f.ReadAt(out, off); err != nil {
		return nil, fmt.Errorf("chunk: read %s: %w", key, err)
	}
	if s.meter != nil {
		s.meter.Charge(length)
	}
	return out, nil
}

// Len implements Store.
func (s *DiskStore) Len(key Key) (int64, error) {
	s.mu.RLock()
	size, ok := s.known[key]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return size, nil
}

// Delete implements Store. The index entry is dropped first, so the
// chunk is logically gone even if the file removal fails (the orphan
// file is retried as ErrNotFound, i.e. success, on the next pass).
func (s *DiskStore) Delete(key Key) error {
	s.mu.Lock()
	size, ok := s.known[key]
	if ok {
		delete(s.known, key)
		s.bytes -= size
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("chunk: delete %s: %w", key, err)
	}
	if s.meter != nil {
		s.meter.Charge(0)
	}
	return nil
}

// Count implements Store.
func (s *DiskStore) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.known)
}

// Usage implements Store.
func (s *DiskStore) Usage() (int, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.known), s.bytes
}
