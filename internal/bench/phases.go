package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/vmanager"
)

// The phases every scenario is assembled from. A scenario says what it
// measures; how N clients run side by side, what a client writes, how a
// file is read back whole, how a provider is lost and how a background
// loop is driven to quiescence is said here, once. The torture
// schedules drive their deployments with the same loop helpers.

// eachClient runs fn for clients 0..n-1 concurrently and returns the
// first error in client order. The clients are released together once
// all of them exist: a phase of short calls would otherwise be over
// for client 0 before client n-1 was spawned, and "concurrent" would
// mean "in sequence".
func eachClient(n int, fn func(client int) error) error {
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			errs[c] = fn(c)
		}(c)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// writePhase is the concurrent write phase: each of n clients fills its
// extent list with its own byte — client w writes byte(w+1), so a
// read-back shows whose write won each overlap — and issues iters
// write calls with it, all clients running at once. write is handed
// the client and iteration so a scenario can route calls (a driver, a
// pipe, one of several blobs).
func writePhase(n, iters int, extentsFor func(client int) extent.List, write func(client, iter int, vec extent.Vec) error) error {
	return eachClient(n, func(w int) error {
		exts := extentsFor(w)
		buf := make([]byte, exts.TotalLength())
		for i := range buf {
			buf[i] = byte(w + 1)
		}
		vec, err := extent.NewVec(exts, buf)
		for it := 0; it < iters && err == nil; it++ {
			err = write(w, it, vec)
		}
		return err
	})
}

// readPhase is the whole-file read phase: each of n clients reads
// [0, span) reads times under MPI atomicity, all clients at once. It
// returns every read's latency, client-major.
func readPhase(d mpiio.Driver, n, reads int, span int64) ([]time.Duration, error) {
	whole := extent.List{{Offset: 0, Length: span}}
	lat := make([]time.Duration, n*reads)
	err := eachClient(n, func(c int) error {
		for i := 0; i < reads; i++ {
			t0 := time.Now()
			if _, err := d.ReadList(whole, true); err != nil {
				return err
			}
			lat[c*reads+i] = time.Since(t0)
		}
		return nil
	})
	return lat, err
}

// mbps is throughput in MiB per second.
func mbps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / elapsed.Seconds()
}

// NotConverged is the tick count of a background loop that did not
// reach quiescence inside its budget — and of one that was never run
// because there was nothing left to converge to (data already lost).
const NotConverged = -1

// TickUntil drives a background loop synchronously: tick, then ask
// done, at most max times. It returns the number of ticks it took, or
// NotConverged.
func TickUntil(max int, tick func(), done func() bool) int {
	for t := 1; t <= max; t++ {
		tick()
		if done() {
			return t
		}
	}
	return NotConverged
}

// TickEvery drives a background loop on the wall clock beside a
// foreground workload, as the daemon runs it; the returned function
// stops it and waits for the tick in progress. Call it once.
func TickEvery(interval time.Duration, tick func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-quit:
				return
			case <-ticker.C:
				tick()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// Clock is the virtual time a deployment's background loops run on:
// one Tick, one second. The health monitor reads no other clock, so
// probation timing is a function of the tick count, not of the host.
type Clock struct {
	svc *cluster.Versioning
	sec atomic.Int64
}

// NewClock puts svc's health monitor, when it has one, on a new Clock.
func NewClock(svc *cluster.Versioning) *Clock {
	c := &Clock{svc: svc}
	if svc.Health != nil {
		svc.Health.SetClock(c.Now)
	}
	return c
}

// Now is the clock's current time.
func (c *Clock) Now() time.Time { return time.Unix(c.sec.Load(), 0) }

// Tick advances the clock one second and runs one iteration of every
// background loop the deployment has: the healer, and the reaper when
// GC is on.
func (c *Clock) Tick() {
	c.sec.Add(1)
	c.svc.Healer.Tick()
	if c.svc.Reaper != nil {
		c.svc.Reaper.Tick()
	}
}

// Healed is the healer's quiescence: the repair queue is drained and
// every chunk is back at full degree.
func Healed(svc *cluster.Versioning) func() bool {
	return func() bool { return svc.Healer.QueueLen() == 0 && svc.Router.UnderReplicated() == 0 }
}

// HealedAndSpread is Healed plus a clean spread audit: count and
// distinct-domain spread both restored.
func HealedAndSpread(svc *cluster.Versioning) func() bool {
	healed := Healed(svc)
	return func() bool { return healed() && len(svc.Router.SpreadAudit()) == 0 }
}

// Drained is the reaper's quiescence: no version retention dropped is
// still pending reclamation. A failed query ends the wait too, and
// leaves its error in *err.
func Drained(be *core.VersioningBackend, err *error) func() bool {
	return func() bool {
		var info vmanager.GCInfo
		info, *err = be.Blob().GCInfo()
		return *err != nil || len(info.Pending) == 0
	}
}

// KillStores makes the given providers' chunk stores fail every call.
// Their liveness flags stay up: nobody has told the system, it must
// notice from errors.
func KillStores(svc *cluster.Versioning, ids ...provider.ID) {
	for _, id := range ids {
		svc.Faults[id].SetDown(true)
	}
}

// Detected counts how many of the given providers the health monitor
// has marked down.
func Detected(svc *cluster.Versioning, ids ...provider.ID) int {
	n := 0
	for _, id := range ids {
		if svc.Health.State(id) == provider.Down {
			n++
		}
	}
	return n
}

// DomainProviders lists the providers of failure domain number domain:
// the contiguous block cluster.Env.Domains carves out for it.
func DomainProviders(providers, domains, domain int) []provider.ID {
	label := fmt.Sprintf("zone%d", domain)
	var ids []provider.ID
	for i := 0; i < providers; i++ {
		if provider.DomainLabel(i, providers, domains) == label {
			ids = append(ids, provider.ID(i))
		}
	}
	return ids
}
