package core

import (
	"sync"
	"time"

	"repro/internal/chunk"
)

// keyQueue is the bounded, deduplicating FIFO of chunk keys shared by
// the background workers: the Healer drains one as its repair queue,
// the Reaper as its delete queue. The backpressure contract is
// identical for both — enqueues of already-queued keys drop as
// duplicates, enqueues into a full queue drop and are counted, and
// dropping is safe because each worker's walk re-finds outstanding
// work on its next pass.
type keyQueue struct {
	mu     sync.Mutex
	depth  int
	q      []chunk.Key
	queued map[chunk.Key]bool

	enqueued   int64
	duplicates int64
	dropped    int64
}

func newKeyQueue(depth int) *keyQueue {
	return &keyQueue{depth: depth, queued: make(map[chunk.Key]bool)}
}

// push enqueues a key, reporting whether it was accepted.
func (q *keyQueue) push(key chunk.Key) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.queued[key] {
		q.duplicates++
		return false
	}
	if len(q.q) >= q.depth {
		q.dropped++
		return false
	}
	q.queued[key] = true
	q.q = append(q.q, key)
	q.enqueued++
	return true
}

// pop dequeues the oldest key.
func (q *keyQueue) pop() (chunk.Key, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.q) == 0 {
		return chunk.Key{}, false
	}
	key := q.q[0]
	q.q = q.q[1:]
	delete(q.queued, key)
	return key, true
}

// len returns the current queue depth.
func (q *keyQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q)
}

// counters returns the cumulative enqueue accounting.
func (q *keyQueue) counters() (enqueued, duplicates, dropped int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.enqueued, q.duplicates, q.dropped
}

// tickLoop is the background wall-clock loop the same two workers run
// in a daemon: one goroutine calling the worker's Tick every interval
// until halted. Tests and the harnesses never start it — they call
// Tick themselves, on a virtual clock.
type tickLoop struct {
	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
}

// start launches the loop; starting a running loop is a no-op.
func (l *tickLoop) start(interval time.Duration, tick func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop != nil {
		return
	}
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				tick()
			}
		}
	}(l.stop, l.done)
}

// halt stops the loop and waits for its goroutine to exit; halting a
// loop that is not running is a no-op.
func (l *tickLoop) halt() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stop == nil {
		return
	}
	close(l.stop)
	<-l.done
	l.stop, l.done = nil, nil
}
