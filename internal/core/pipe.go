package core

import (
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/extent"
)

// WritePipe pipelines WriteList calls against a versioning backend: each
// submitted write runs the data path (chunk stores + metadata build +
// Complete) asynchronously without waiting for in-order publication, so
// the chunk I/O of queued calls overlaps both the chunk I/O and the
// publication of earlier calls. Combined with the version manager's
// group commit, a pipe full of small writes turns many per-call control
// round trips into a few per-group ones.
//
// Submit blocks only when Depth writes are already in flight. Flush
// drains the pipe and then waits once for publication of the highest
// version the pipe produced — publication is in ticket order, so that
// single wait covers every submitted write. Each write is still fully
// MPI-atomic; the pipe only relaxes WHEN the submitting goroutine
// observes its durability, exactly like blob.WriteOptions.NoWait.
//
// A WritePipe is safe for concurrent use by multiple goroutines: a
// Flush drains exactly the writes whose Submit returned before the
// Flush began (a Submit racing a concurrent Flush may land on either
// side of it).
type WritePipe struct {
	be     *VersioningBackend
	tokens chan struct{}

	mu       sync.Mutex
	drained  *sync.Cond // signalled when inflight drops
	inflight int
	maxVer   Version
	firstEr  error
}

// NewPipe creates a write pipeline of the given depth (minimum 1).
func (v *VersioningBackend) NewPipe(depth int) *WritePipe {
	if depth < 1 {
		depth = 1
	}
	p := &WritePipe{be: v, tokens: make(chan struct{}, depth)}
	p.drained = sync.NewCond(&p.mu)
	return p
}

// Submit enqueues one atomic WriteList. It blocks while the pipe is
// full, then returns as soon as the write is in flight. Errors of
// in-flight writes surface on Flush (and on the first Submit after the
// failure).
func (p *WritePipe) Submit(vec extent.Vec) error {
	p.mu.Lock()
	err := p.firstEr
	p.mu.Unlock()
	if err != nil {
		return err
	}
	p.tokens <- struct{}{}
	p.mu.Lock()
	p.inflight++
	p.mu.Unlock()
	p.be.met.pipeSubmit.Inc()
	p.be.met.pipeInflight.Add(1)
	start := time.Now()
	go func() {
		ver, err := p.be.b.WriteList(vec, blob.WriteOptions{NoWait: true}) // the pipe waits once, at Flush
		p.be.met.pipeInflight.Add(-1)
		p.be.met.pipeWriteSec.ObserveSince(start)
		<-p.tokens
		p.mu.Lock()
		defer p.mu.Unlock()
		if err != nil {
			if p.firstEr == nil {
				p.firstEr = err
			}
		} else {
			p.be.writes.Add(1)
			p.be.bytesWr.Add(int64(len(vec.Buf)))
			if Version(ver) > p.maxVer {
				p.maxVer = Version(ver)
			}
		}
		p.inflight--
		p.drained.Broadcast()
	}()
	return nil
}

// Flush waits for every submitted write to finish its data path, then
// waits once for publication of the newest version the pipe produced.
// It returns that version and the first error any write hit. The pipe
// is reusable after Flush.
//
// The publication wait happens even when a write failed: the surviving
// writes of the train committed real versions, and returning while
// their publication state is unknown would let the caller read around
// data it just wrote. Flush therefore always waits on the surviving
// maxVer and then reports the first write error (which takes precedence
// over a wait error).
func (p *WritePipe) Flush() (Version, error) {
	p.mu.Lock()
	for p.inflight > 0 {
		p.drained.Wait()
	}
	ver, err := p.maxVer, p.firstEr
	p.maxVer, p.firstEr = 0, nil
	p.mu.Unlock()
	if ver == 0 {
		return 0, err
	}
	if werr := p.be.b.WaitPublished(uint64(ver)); err == nil {
		err = werr
	}
	return ver, err
}
