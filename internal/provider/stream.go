package provider

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/chunk"
)

// This file is the Router's streaming entry points: chunk writes fed
// from an io.Reader and chunk reads served as an io.ReadCloser, so the
// remote framed transport can move payloads socket→store and
// store→socket without materializing them. They run through the same
// put core and read core as Put and Get (provider.go); only how the
// bytes enter and leave a store differs.

// DefaultMaxChunkSize bounds the declared size of a streamed chunk put
// when SetMaxChunkSize was never called. Generous — chunks are
// normally a few MiB — while still refusing the pathological sizes a
// corrupt or hostile wire header can declare.
const DefaultMaxChunkSize = 1 << 30

// ErrChunkTooLarge is the sentinel matched (via errors.Is) by
// ChunkTooLargeError.
var ErrChunkTooLarge = errors.New("provider: chunk exceeds max chunk size")

// ChunkTooLargeError rejects a streamed put whose declared size is
// negative or exceeds the configured bound. The check runs before ANY
// buffer allocation: a put with more than one target materializes the
// payload into a size-sized buffer, and the size comes straight from the
// wire header — an unchecked value would let one corrupt header force an
// arbitrary allocation.
type ChunkTooLargeError struct {
	Size int64 // declared payload size
	Max  int64 // configured bound
}

// Error implements error.
func (e *ChunkTooLargeError) Error() string {
	return fmt.Sprintf("provider: declared chunk size %d exceeds max chunk size %d", e.Size, e.Max)
}

// Is matches the ErrChunkTooLarge sentinel; errors.Is calls it.
func (e *ChunkTooLargeError) Is(target error) bool { return target == ErrChunkTooLarge }

// SetMaxChunkSize bounds the declared size PutStream accepts; v <= 0
// restores DefaultMaxChunkSize. Only tests lower it, so that a refused
// size is small: TestFramedServerRejectsOversizedPut and
// FuzzFramedServer in internal/remote, TestPutStreamSizeBound here.
func (r *Router) SetMaxChunkSize(v int64) {
	r.cfg.Lock()
	r.maxChunk = v
	r.cfg.Unlock()
}

// MaxChunkSize returns the effective streamed-put size bound.
func (r *Router) MaxChunkSize() int64 {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	if r.maxChunk <= 0 {
		return DefaultMaxChunkSize
	}
	return r.maxChunk
}

// PutStream is Put for a chunk whose payload arrives as a stream of
// exactly size bytes. With one target (R == 1, the default) the stream
// is handed straight to the provider's store — the zero-copy path the
// framed transport exists for; a wider placement needs the bytes in
// hand to fan them out, so the put core buffers them once, before it
// allocates a target. The declared size is bounded by MaxChunkSize
// before anything is allocated; an oversize or negative size fails with
// a typed *ChunkTooLargeError. Callers must not retry a failed
// PutStream with the same reader: the stream may be partially consumed.
func (r *Router) PutStream(key chunk.Key, size int64, rd io.Reader) ([]ID, error) {
	if max := r.MaxChunkSize(); size < 0 || size > max {
		return nil, &ChunkTooLargeError{Size: size, Max: max}
	}
	return r.put(key, size, rd)
}

// Open is Get with the bytes leaving as a stream the caller must Close,
// through the same read core.
func (r *Router) Open(key chunk.Key, off, length int64) (io.ReadCloser, error) {
	out, err := r.read(chunkRead{key: key, off: off, length: length, stream: true})
	return out.rc, err
}
