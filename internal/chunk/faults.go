package chunk

import (
	"errors"
	"io"
	"sync/atomic"
)

// ErrInjected is the error FaultStore returns for injected failures.
var ErrInjected = errors.New("chunk: injected fault")

// ErrDown is the error every operation of a FaultStore returns while
// the store is in permanent down mode (SetDown): the machine holding
// the chunks is gone, not transiently failing.
var ErrDown = errors.New("chunk: provider down")

// FaultStore wraps a Store and fails a configurable subset of
// operations; used by failure-injection tests to exercise the write
// path's ticket-retirement logic. Three fault modes compose: transient
// fail-next-N counters per operation, a permanent down mode (SetDown)
// under which every operation fails with ErrDown until the store is
// revived — the model of a dead machine that failover and repair tests
// need — and a hold (HoldPut) that stalls one put until the test lets
// it go, so a schedule can order a fault against another client's call
// without sleeping.
type FaultStore struct {
	Inner Store

	failPuts atomic.Int64 // number of upcoming Puts to fail
	failGets atomic.Int64 // number of upcoming Gets to fail
	down     atomic.Bool  // permanent failure of every operation

	// Stream faults fire mid-transfer rather than at call time; each
	// holds threshold+1 bytes so the zero value means disarmed, and is
	// claimed by the next stream that starts (one-shot).
	failPutStream atomic.Int64
	failGetStream atomic.Int64

	hold atomic.Pointer[putHold]
}

// putHold is an armed HoldPut: the put that takes left to zero stops.
type putHold struct {
	left    atomic.Int64
	held    chan struct{}
	release chan bool
}

var _ Store = (*FaultStore)(nil)

// NewFaultStore wraps inner with no faults armed.
func NewFaultStore(inner Store) *FaultStore { return &FaultStore{Inner: inner} }

// FailNextPuts arms n upcoming Put failures.
func (f *FaultStore) FailNextPuts(n int64) { f.failPuts.Store(n) }

// FailNextGets arms n upcoming Get failures. TestReadPathsAgree and
// TestCodedReadCounts in internal/provider use it to fail one open.
func (f *FaultStore) FailNextGets(n int64) { f.failGets.Store(n) }

// SetDown enters (true) or leaves (false) permanent down mode. While
// down, every Put, Get and Len fails with ErrDown; the stored chunks
// survive and become readable again on revival.
func (f *FaultStore) SetDown(down bool) { f.down.Store(down) }

// HoldPut arms the nth put from now (Put or PutFromReader; n >= 1) to
// stop at call time, before it reaches the inner store. held is closed
// once that put has stopped; release, called once, lets it go on — and
// fail makes it return ErrInjected, storing nothing. One-shot.
func (f *FaultStore) HoldPut(n int64) (held <-chan struct{}, release func(fail bool)) {
	h := &putHold{held: make(chan struct{}), release: make(chan bool, 1)}
	h.left.Store(n)
	f.hold.Store(h)
	return h.held, func(fail bool) { h.release <- fail }
}

// waitHold stops the put that claims an armed hold until it is released.
func (f *FaultStore) waitHold() error {
	h := f.hold.Load()
	if h == nil || h.left.Add(-1) != 0 {
		return nil
	}
	f.hold.CompareAndSwap(h, nil)
	close(h.held)
	if <-h.release {
		return ErrInjected
	}
	return nil
}

// Put implements Store.
func (f *FaultStore) Put(key Key, data []byte) error {
	if f.down.Load() {
		return ErrDown
	}
	if err := f.waitHold(); err != nil {
		return err
	}
	if take(&f.failPuts) {
		return ErrInjected
	}
	return f.Inner.Put(key, data)
}

// Get implements Store.
func (f *FaultStore) Get(key Key, off, length int64) ([]byte, error) {
	if f.down.Load() {
		return nil, ErrDown
	}
	if take(&f.failGets) {
		return nil, ErrInjected
	}
	return f.Inner.Get(key, off, length)
}

// Len implements Store.
func (f *FaultStore) Len(key Key) (int64, error) {
	if f.down.Load() {
		return 0, ErrDown
	}
	return f.Inner.Len(key)
}

// Delete implements Store.
func (f *FaultStore) Delete(key Key) error {
	if f.down.Load() {
		return ErrDown
	}
	return f.Inner.Delete(key)
}

// FailPutStreamAfter arms the next PutFromReader to fail with
// ErrInjected after roughly n payload bytes have been consumed — a
// writer dying mid-upload. One-shot: the first stream that starts
// claims the fault.
func (f *FaultStore) FailPutStreamAfter(n int64) { f.failPutStream.Store(n + 1) }

// FailGetStreamAfter arms the next OpenReader's stream to fail with
// ErrInjected after roughly n bytes have been served — a reader losing
// its provider mid-download. One-shot. TestOpenFromFailsOverOnlyAtOpen
// and TestCodedReadCounts in internal/provider, and
// TestFramedGetTrainLeavesInOneVectoredWrite in internal/remote, cut a
// read with it.
func (f *FaultStore) FailGetStreamAfter(n int64) { f.failGetStream.Store(n + 1) }

// claimStream takes an armed stream-fault threshold, returning
// (threshold, true) at most once per arming.
func claimStream(c *atomic.Int64) (int64, bool) {
	v := c.Swap(0)
	if v <= 0 {
		return 0, false
	}
	return v - 1, true
}

// faultReader injects mid-stream failures: ErrDown as soon as the
// store goes down (an in-flight transfer dies with the machine), and
// ErrInjected once the armed byte threshold is crossed.
type faultReader struct {
	r     io.Reader
	f     *FaultStore
	limit int64 // remaining bytes before ErrInjected; -1 = disarmed
}

func (fr *faultReader) Read(p []byte) (int, error) {
	if fr.f.down.Load() {
		return 0, ErrDown
	}
	if fr.limit >= 0 {
		if fr.limit == 0 {
			return 0, ErrInjected
		}
		if int64(len(p)) > fr.limit {
			p = p[:fr.limit]
		}
	}
	n, err := fr.r.Read(p)
	if fr.limit >= 0 {
		fr.limit -= int64(n)
	}
	return n, err
}

// faultReadCloser is faultReader over an owned stream.
type faultReadCloser struct {
	faultReader
	c io.Closer
}

func (frc *faultReadCloser) Close() error { return frc.c.Close() }

// PutFromReader implements Store. Injection points: call time (the
// fail-next-Puts counter, the hold and down mode, as for Put) and
// mid-stream (FailPutStreamAfter, or the store going down while the
// payload is in flight). Mid-stream failures surface through the inner store's
// reader, whose write protocol guarantees the torn chunk is never
// visible.
func (f *FaultStore) PutFromReader(key Key, size int64, r io.Reader) error {
	if f.down.Load() {
		return ErrDown
	}
	if err := f.waitHold(); err != nil {
		return err
	}
	if take(&f.failPuts) {
		return ErrInjected
	}
	limit := int64(-1)
	if n, ok := claimStream(&f.failPutStream); ok {
		limit = n
	}
	return f.Inner.PutFromReader(key, size, &faultReader{r: r, f: f, limit: limit})
}

// OpenReader implements Store. Injection points: open time (the
// fail-next-Gets counter and down mode) and mid-stream
// (FailGetStreamAfter, or the store going down while the read is in
// flight).
func (f *FaultStore) OpenReader(key Key, off, length int64) (io.ReadCloser, error) {
	if f.down.Load() {
		return nil, ErrDown
	}
	if take(&f.failGets) {
		return nil, ErrInjected
	}
	rc, err := f.Inner.OpenReader(key, off, length)
	if err != nil {
		return nil, err
	}
	limit := int64(-1)
	if n, ok := claimStream(&f.failGetStream); ok {
		limit = n
	}
	return &faultReadCloser{faultReader: faultReader{r: rc, f: f, limit: limit}, c: rc}, nil
}

// Count implements Store.
func (f *FaultStore) Count() int { return f.Inner.Count() }

// Usage implements Store. Accounting is answered even while the store
// is down: it models out-of-band bookkeeping, not a data-path request
// to the dead machine (callers report the down flag alongside).
func (f *FaultStore) Usage() (int, int64) { return f.Inner.Usage() }

// take decrements the counter if positive and reports whether a fault
// fired.
func take(c *atomic.Int64) bool {
	for {
		cur := c.Load()
		if cur <= 0 {
			return false
		}
		if c.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}
