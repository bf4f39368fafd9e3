// Package iosim provides the synthetic I/O cost model that stands in for
// the real network and disks of the paper's Grid'5000 testbed.
//
// Every storage server (data provider, metadata provider, OST, lock
// manager) charges each operation a fixed per-operation latency plus a
// per-byte transfer cost. An exclusive meter models a server with one
// bandwidth-limited service channel: concurrent requests queue in
// virtual time (a monotonically advancing busy-until deadline), so a
// server naturally serializes its load — which is exactly the
// contention behaviour the paper's evaluation depends on. A zero
// CostModel charges nothing, so unit tests run at full speed.
//
// Waiting is implemented with a yielding spin on the monotonic clock
// rather than time.Sleep: the experiments charge costs of tens of
// microseconds, far below the sleep granularity of typical kernels
// (~1ms), and the spin keeps the simulation accurate even with many
// more waiters than cores.
package iosim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// CostModel describes the synthetic cost of operations against one
// storage element. The zero value charges nothing.
type CostModel struct {
	// PerOp is the fixed latency charged per operation (request
	// processing + network round trip).
	PerOp time.Duration
	// BytesPerSec is the server's sustained transfer bandwidth. Zero
	// means infinite bandwidth (no per-byte charge).
	BytesPerSec int64
}

// Duration returns the simulated service time for an operation moving n
// bytes.
func (c CostModel) Duration(n int64) time.Duration {
	d := c.PerOp
	if c.BytesPerSec > 0 && n > 0 {
		d += time.Duration(float64(n) / float64(c.BytesPerSec) * float64(time.Second))
	}
	return d
}

// Zero reports whether the model charges nothing.
func (c CostModel) Zero() bool { return c.PerOp == 0 && c.BytesPerSec == 0 }

// waitUntil waits by yielding-spinning on the monotonic clock. It is
// accurate to a few microseconds even when waiters outnumber cores.
func waitUntil(deadline time.Time) {
	// For long waits, sleep off the bulk and spin only the tail, so a
	// heavily queued server does not burn a core for its whole backlog.
	const spinTail = 2 * time.Millisecond
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		if remaining > spinTail {
			time.Sleep(remaining - spinTail)
			continue
		}
		break
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Meter is the per-server accounting object: it applies the cost model
// and tracks operation statistics. A Meter is safe for concurrent use.
//
// An exclusive meter serializes service in virtual time: each charge
// appends its duration to the server's busy-until deadline and the
// caller waits (concurrently with other waiters) until its own
// position in the queue is reached. A shared meter charges only the
// caller's latency.
type Meter struct {
	model     CostModel
	exclusive bool

	mu        sync.Mutex // guards busyUntil
	busyUntil time.Time

	ops   atomic.Int64
	bytes atomic.Int64
	busy  atomic.Int64 // accumulated simulated busy time, ns
}

// NewMeter builds a meter with the given model. Exclusive meters
// serialize the simulated service time, modelling a server with a
// single bandwidth-limited resource.
func NewMeter(model CostModel, exclusive bool) *Meter {
	return &Meter{model: model, exclusive: exclusive}
}

// Charge accounts one operation of n bytes, blocking for the simulated
// service time.
func (m *Meter) Charge(n int64) {
	m.ops.Add(1)
	m.bytes.Add(n)
	if m.model.Zero() {
		return
	}
	d := m.model.Duration(n)
	m.busy.Add(int64(d))
	if m.exclusive {
		m.mu.Lock()
		now := time.Now()
		start := m.busyUntil
		if start.Before(now) {
			start = now
		}
		deadline := start.Add(d)
		m.busyUntil = deadline
		m.mu.Unlock()
		waitUntil(deadline)
		return
	}
	waitUntil(time.Now().Add(d))
}

// ChargeDuration accounts an operation with an explicit duration
// instead of one derived from the cost model. Used for costs that
// scale with something other than bytes (e.g. conflict detection work
// proportional to the number of concurrent operations). A zero or
// negative duration only counts the op.
func (m *Meter) ChargeDuration(d time.Duration) {
	m.ops.Add(1)
	if d <= 0 {
		return
	}
	m.busy.Add(int64(d))
	if m.exclusive {
		m.mu.Lock()
		now := time.Now()
		start := m.busyUntil
		if start.Before(now) {
			start = now
		}
		deadline := start.Add(d)
		m.busyUntil = deadline
		m.mu.Unlock()
		waitUntil(deadline)
		return
	}
	waitUntil(time.Now().Add(d))
}

// Stats is a snapshot of meter counters.
type Stats struct {
	Ops   int64
	Bytes int64
	Busy  time.Duration
}

// Stats returns a snapshot of the meter counters.
func (m *Meter) Stats() Stats {
	return Stats{
		Ops:   m.ops.Load(),
		Bytes: m.bytes.Load(),
		Busy:  time.Duration(m.busy.Load()),
	}
}

// Reset zeroes the counters (not the model).
func (m *Meter) Reset() {
	m.ops.Store(0)
	m.bytes.Store(0)
	m.busy.Store(0)
}

// DefaultNetwork is a representative cost model for one storage server
// reachable over a cluster network, tuned so experiments complete in
// seconds: 100µs per op, 1 GiB/s sustained bandwidth.
func DefaultNetwork() CostModel {
	return CostModel{PerOp: 100 * time.Microsecond, BytesPerSec: 1 << 30}
}
