package vmanager

import (
	"sync"
	"time"

	"repro/internal/extent"
	"repro/internal/segtree"
)

// BatchConfig tunes the manager's group-commit pipeline.
type BatchConfig struct {
	// MaxBatch bounds how many requests one group commit may carry.
	// Values <= 1 disable batching: every request is applied alone, as a
	// group of one on the caller's goroutine, and pays its own lock
	// acquisition and control round trip (the pre-batching cost).
	MaxBatch int
	// MaxDelay bounds how long a group leader lingers waiting for the
	// group to fill before committing what it has. Zero commits
	// opportunistically: whatever queued while the previous group was
	// being applied forms the next group.
	MaxDelay time.Duration
}

// SetBatching configures group commit. Safe to call concurrently with
// requests; in-flight groups finish under the configuration they
// started with.
func (m *Manager) SetBatching(cfg BatchConfig) {
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	m.batch = cfg
}

// Batching returns the current group-commit configuration.
func (m *Manager) Batching() BatchConfig {
	m.batchMu.Lock()
	defer m.batchMu.Unlock()
	return m.batch
}

// --- The commit core: every ticket and every completion is applied as
// part of a group, a group of one at MaxBatch <= 1 ---

// ticketReq is one AssignTicket request (extents already normalized).
type ticketReq struct {
	blob uint64
	ext  extent.List
}

// PublishRequest is one Complete, or with Abort set one Abort, as the
// commit core (and so the Crashpoint) sees it.
type PublishRequest struct {
	Blob    uint64
	Version uint64
	Root    segtree.NodeKey
	Abort   bool
}

// applyTickets assigns tickets for a whole group under one lock
// acquisition and one metered control round trip. Requests are applied
// in group order, so same-blob requests receive contiguous versions and
// each request's borrow answers reflect every earlier request in the
// group. Failures are per-request: one bad request never poisons its
// group peers.
func (m *Manager) applyTickets(group []*pending[ticketReq, Ticket]) {
	if err := m.admit(true); err != nil {
		for _, p := range group {
			p.err = err
		}
		return
	}
	defer m.mu.Unlock()
	for _, p := range group {
		p.resp, p.err = m.assignTicketLocked(p.req.blob, p.req.ext)
	}
}

// applyPublish applies a group of Complete/Abort requests under one
// lock acquisition and one metered control round trip, then publishes
// everything that became ready with one broadcast per advanced blob.
// Failures are per-request.
//
// The group is atomic against a mid-group kill (the Crashpoint seam):
// if the manager dies partway through, the applied prefix is rolled
// back before anything publishes and every request in the group fails
// with ErrShardDown — a group is never torn.
func (m *Manager) applyPublish(group []*pending[PublishRequest, struct{}]) {
	fail := func(err error) {
		for _, p := range group {
			p.err = err
		}
	}
	if err := m.admit(true); err != nil {
		fail(err)
		return
	}
	defer m.mu.Unlock()
	var reqs []PublishRequest // the group as the crashpoint sees it
	if m.crash != nil {
		reqs = make([]PublishRequest, len(group))
		for i, p := range group {
			reqs[i] = p.req
		}
	}
	applied := 0
	// One extra iteration so the crashpoint also observes the state
	// after the last request was applied (a group of one would otherwise
	// never be seen in flight).
	for i := 0; i <= len(group); i++ {
		if m.crash != nil && m.crash(reqs, applied) {
			// Kill mid-group: undo the applied prefix. Nothing published
			// yet and no counters or undo runs were touched (finishLocked
			// runs only after the loop), so deleting the completion
			// records suffices.
			for _, p := range group[:i] {
				if st := m.blobs[p.req.Blob]; p.err == nil {
					delete(st.completed, p.req.Version)
					delete(st.aborted, p.req.Version)
					delete(st.roots, p.req.Version)
				}
			}
			m.killLocked()
			fail(ErrShardDown)
			return
		}
		if i == len(group) {
			break
		}
		p := group[i]
		if p.err = m.completeLocked(p.req); p.err == nil {
			applied++
		}
	}
	for _, p := range group {
		if p.err == nil {
			m.finishLocked(m.blobs[p.req.Blob], p.req.Version, p.req.Abort)
		}
	}
	for _, p := range group {
		if st := m.blobs[p.req.Blob]; p.err == nil && st.publishReady(m) {
			st.cond.Broadcast()
		}
	}
}

// --- Group-commit combiner ---

// pending is one request inside a group. The group's apply function
// fills resp/err; a combiner leader then closes done.
type pending[Req, Resp any] struct {
	req  Req
	resp Resp
	err  error
	done chan struct{}
}

// combiner implements leader/follower group commit (flat combining):
// the first caller to find the queue idle becomes the leader, optionally
// lingers for the group to fill, then applies the whole group in one
// shot and keeps draining until the queue is empty, so no follower is
// ever stranded. Followers just wait for their slot's result. There is
// no background goroutine: the pipeline costs nothing when idle, and at
// MaxBatch <= 1 a request skips the queue and is applied alone.
type combiner[Req, Resp any] struct {
	apply func([]*pending[Req, Resp])

	mu     sync.Mutex
	queue  []*pending[Req, Resp]
	busy   bool          // a leader is lingering or draining
	filled chan struct{} // signalled when the queue reaches MaxBatch
}

func newCombiner[Req, Resp any](apply func([]*pending[Req, Resp])) *combiner[Req, Resp] {
	return &combiner[Req, Resp]{apply: apply, filled: make(chan struct{}, 1)}
}

// do submits one request and blocks until a group commit containing it
// has been applied.
func (c *combiner[Req, Resp]) do(req Req, cfg BatchConfig) (Resp, error) {
	p := &pending[Req, Resp]{req: req}
	if cfg.MaxBatch <= 1 {
		// A group of one on the caller's goroutine: no queue, channel or
		// leader.
		c.apply([]*pending[Req, Resp]{p})
		return p.resp, p.err
	}
	p.done = make(chan struct{})
	c.mu.Lock()
	c.queue = append(c.queue, p)
	if c.busy {
		full := len(c.queue) >= cfg.MaxBatch
		c.mu.Unlock()
		if full {
			// Wake a lingering leader early; dropping the signal when
			// one is already pending is fine.
			select {
			case c.filled <- struct{}{}:
			default:
			}
		}
		<-p.done
		return p.resp, p.err
	}
	c.busy = true
	c.mu.Unlock()

	// Leader: discard any stale fill signal, then linger for the group
	// to fill (bounded by MaxDelay).
	select {
	case <-c.filled:
	default:
	}
	if cfg.MaxDelay > 0 {
		c.mu.Lock()
		n := len(c.queue)
		c.mu.Unlock()
		if n < cfg.MaxBatch {
			t := time.NewTimer(cfg.MaxDelay)
			select {
			case <-c.filled:
				t.Stop()
			case <-t.C:
			}
		}
	}

	// Drain until the queue is empty; only then may leadership lapse.
	for {
		c.mu.Lock()
		var batch []*pending[Req, Resp]
		if len(c.queue) > cfg.MaxBatch {
			batch = c.queue[:cfg.MaxBatch:cfg.MaxBatch]
			c.queue = append([]*pending[Req, Resp]{}, c.queue[cfg.MaxBatch:]...)
		} else {
			batch = c.queue
			c.queue = nil
		}
		if len(batch) == 0 {
			c.busy = false
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		c.apply(batch)
		for _, b := range batch {
			close(b.done)
		}
	}
	<-p.done // own request was in one of the drained groups
	return p.resp, p.err
}
