package chunk

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// NullStore discards chunk payloads while keeping the full accounting
// and error-identity surface of a real store: keys, sizes, ErrExists
// and ErrNotFound all behave normally, but Get and OpenReader serve
// zeros. It exists for benchmarks of everything but the medium (the
// wire benchmarks' null:// backend), where data-path cost must be
// removed from the measurement without changing any protocol behavior.
type NullStore struct {
	mu    sync.RWMutex
	sizes map[Key]int64
	bytes int64
}

// NewNullStore builds a discard store. It takes no meter: NullStore
// models zero-cost I/O, so charging a simulated device for it would
// defeat its purpose.
func NewNullStore() *NullStore {
	return &NullStore{sizes: make(map[Key]int64)}
}

var _ Store = (*NullStore)(nil)

// Put implements Store, recording only the size.
func (s *NullStore) Put(key Key, data []byte) error {
	return s.record(key, int64(len(data)))
}

// PutFromReader implements Store, draining the reader (so upstream
// pipelines observe real transfer mechanics) and recording the size.
func (s *NullStore) PutFromReader(key Key, size int64, r io.Reader) error {
	if size < 0 {
		return fmt.Errorf("chunk: negative size %d for %s", size, key)
	}
	s.mu.RLock()
	_, dup := s.sizes[key]
	s.mu.RUnlock()
	if dup {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	n, err := io.Copy(io.Discard, io.LimitReader(r, size))
	if err != nil {
		return fmt.Errorf("chunk: stream %s: %w", key, err)
	}
	if n < size {
		return fmt.Errorf("chunk: stream %s: %w", key, io.ErrUnexpectedEOF)
	}
	return s.record(key, size)
}

func (s *NullStore) record(key Key, size int64) error {
	s.mu.Lock()
	_, dup := s.sizes[key]
	if !dup {
		s.sizes[key] = size
		s.bytes += size
	}
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	return nil
}

// Get implements Store, serving zeros of the requested range.
func (s *NullStore) Get(key Key, off, length int64) ([]byte, error) {
	if err := s.check(key, off, length); err != nil {
		return nil, err
	}
	return make([]byte, length), nil
}

// OpenReader implements Store, streaming zeros of the requested range.
func (s *NullStore) OpenReader(key Key, off, length int64) (io.ReadCloser, error) {
	if err := s.check(key, off, length); err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(make([]byte, length))), nil
}

func (s *NullStore) check(key Key, off, length int64) error {
	s.mu.RLock()
	size, ok := s.sizes[key]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || length < 0 || length > size-off {
		return fmt.Errorf("chunk: range [%d,%d) out of bounds for %s (len %d)", off, off+length, key, size)
	}
	return nil
}

// Len implements Store.
func (s *NullStore) Len(key Key) (int64, error) {
	s.mu.RLock()
	size, ok := s.sizes[key]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return size, nil
}

// Delete implements Store.
func (s *NullStore) Delete(key Key) error {
	s.mu.Lock()
	size, ok := s.sizes[key]
	if ok {
		delete(s.sizes, key)
		s.bytes -= size
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return nil
}

// Usage implements Store.
func (s *NullStore) Usage() (int, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sizes), s.bytes
}
