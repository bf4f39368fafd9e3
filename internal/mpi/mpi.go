// Package mpi provides an in-process MPI runtime: ranks run as
// goroutines inside one world and communicate through typed mailboxes
// and the collectives the MPI-I/O layer uses (barrier, broadcast,
// gather, allgather, alltoall).
// It exists so that the MPI-I/O layer and the paper's benchmarks
// (MPI-tile-IO, the ghost-cell workloads) can run with the exact
// communication structure of their MPI originals — per-rank
// concurrency, synchronizing collectives, two-phase data exchange —
// without an external MPI installation.
package mpi

import (
	"errors"
	"fmt"
	"sync"
)

// World owns the shared communication state of one MPI job.
type World struct {
	size    int
	mu      sync.Mutex
	boxes   map[msgKey]*mailbox
	barrier *barrier
}

type msgKey struct {
	src, dst, tag int
}

// mailbox is an unbounded FIFO queue for one (src, dst, tag) stream.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    []any
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(v any) {
	m.mu.Lock()
	m.q = append(m.q, v)
	m.cond.Signal()
	m.mu.Unlock()
}

func (m *mailbox) take() any {
	m.mu.Lock()
	for len(m.q) == 0 {
		m.cond.Wait()
	}
	v := m.q[0]
	m.q = m.q[1:]
	m.mu.Unlock()
	return v
}

// barrier is a reusable n-party barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: world size %d must be >= 1", size)
	}
	return &World{
		size:    size,
		boxes:   make(map[msgKey]*mailbox),
		barrier: newBarrier(size),
	}, nil
}

// Comm is one rank's communicator handle.
type Comm struct {
	w    *World
	rank int
}

// Comm returns the communicator for a rank.
func (w *World) Comm(rank int) (*Comm, error) {
	if rank < 0 || rank >= w.size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", rank, w.size)
	}
	return &Comm{w: w, rank: rank}, nil
}

// Run spawns size ranks, invokes fn in each, and waits for all to
// finish. Every rank's error (and recovered panic) is collected; the
// joined error is returned.
func Run(size int, fn func(c *Comm) error) error {
	w, err := NewWorld(size)
	if err != nil {
		return err
	}
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("mpi: rank %d panicked: %v", r, p)
				}
			}()
			c, err := w.Comm(r)
			if err != nil {
				errs[r] = err
				return
			}
			errs[r] = fn(c)
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.w.size }

// Tags of the collectives' mailboxes.
const (
	tagBcast = -1 - iota
	tagGather
	tagAlltoall
)

func (w *World) box(src, dst, tag int) *mailbox {
	k := msgKey{src: src, dst: dst, tag: tag}
	w.mu.Lock()
	b, ok := w.boxes[k]
	if !ok {
		b = newMailbox()
		w.boxes[k] = b
	}
	w.mu.Unlock()
	return b
}

// isend and irecv pass v through the mailbox of (sender, receiver, tag).
func (c *Comm) isend(dst, tag int, v any) { c.w.box(c.rank, dst, tag).put(v) }
func (c *Comm) irecv(src, tag int) any    { return c.w.box(src, c.rank, tag).take() }

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() { c.w.barrier.wait() }

// Bcast distributes root's value to every rank and returns it.
func (c *Comm) Bcast(root int, v any) any {
	if c.w.size == 1 {
		return v
	}
	if c.rank == root {
		for r := 0; r < c.w.size; r++ {
			if r != root {
				c.isend(r, tagBcast, v)
			}
		}
		return v
	}
	return c.irecv(root, tagBcast)
}

// Gather collects one value per rank at root. Root receives the full
// slice indexed by rank; other ranks receive nil.
func (c *Comm) Gather(root int, v any) []any {
	if c.rank != root {
		c.isend(root, tagGather, v)
		return nil
	}
	out := make([]any, c.w.size)
	out[c.rank] = v
	for r := 0; r < c.w.size; r++ {
		if r != root {
			out[r] = c.irecv(r, tagGather)
		}
	}
	return out
}

// Allgather collects one value per rank at every rank.
func (c *Comm) Allgather(v any) []any {
	// Gather at rank 0, then broadcast the slice.
	gathered := c.Gather(0, v)
	res := c.Bcast(0, any(gathered))
	return res.([]any)
}

// Alltoall sends vals[r] to rank r and returns the values received
// from every rank, indexed by sender (MPI_Alltoall). The caller must
// supply exactly one value per rank.
func (c *Comm) Alltoall(vals []any) ([]any, error) {
	if len(vals) != c.w.size {
		return nil, fmt.Errorf("mpi: alltoall of %d values on %d ranks", len(vals), c.w.size)
	}
	for r := 0; r < c.w.size; r++ {
		c.isend(r, tagAlltoall, vals[r])
	}
	out := make([]any, c.w.size)
	for r := 0; r < c.w.size; r++ {
		out[r] = c.irecv(r, tagAlltoall)
	}
	return out, nil
}
