package torture

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/verify"
	"repro/internal/vmanager"
)

// This file is the rig every schedule stands on: what a schedule is —
// its Plan, its fault events, its assertions — lives in the schedule's
// own file; what all of them need in order to run — a booted
// deployment, virtual time, the writers-race-an-event loop, the
// seed-derived plan stream and the replayable error prefix — lives
// here, once.

// notConverged is what tickUntil returns when its budget runs out, and
// what every report's tick field holds after a run that timed out.
const notConverged = -1

// failf formats a schedule failure. Every error a run reports carries
// the seed, so the line CI prints is the replay command's argument.
func failf(seed int64, format string, args ...any) error {
	return fmt.Errorf("torture(seed=%d): %w", seed, fmt.Errorf(format, args...))
}

// planRNG is the random stream a schedule family derives its Plan
// from: the run seed XOR a per-family constant, so a family's schedule
// is independent of the call generator (which uses the bare seed) and
// of every other family, and each replays from the seed alone.
func planRNG(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ stream))
}

// midWorkload draws the point, in completed calls, at which a
// schedule's fault fires: inside the middle half of the workload, so
// writes race it from both sides.
func midWorkload(rng *rand.Rand, total int) int {
	return total/4 + rng.Intn(total/2+1)
}

// domainVictims lists the providers of failure domain number domain —
// the contiguous block cluster.Env.Domains carves out for it.
func domainVictims(providers, domains, domain int) []provider.ID {
	label := fmt.Sprintf("zone%d", domain)
	var ids []provider.ID
	for i := 0; i < providers; i++ {
		if provider.DomainLabel(i, providers, domains) == label {
			ids = append(ids, provider.ID(i))
		}
	}
	return ids
}

// selfHealEnv is the deployment the self-healing schedules share,
// pinned so the tick math is deterministic: fault injection on every
// store, detection threshold 2, probation 30 virtual seconds (the
// virtual clock advances 1s per tick), a scrub budget of 32 chunks and
// 8 repairs per tick, and a repair queue of 64 — smaller than the
// degraded set most seeds produce, so the drop-and-refind backpressure
// path is exercised, not just tolerated. A schedule adds what is its
// own (pool shape, domains, coding, GC, the read tier) on top.
func selfHealEnv(providers, replicas int) cluster.Env {
	env := cluster.Default()
	env.Providers = providers
	env.Replicas = replicas
	env.SelfHeal = true
	env.FaultInjection = true
	env.FailThreshold = 2
	env.Probation = 30 * time.Second
	env.ScrubRate = 32
	env.RepairRate = 8
	env.RepairQueue = 64
	return env
}

// rig is one booted deployment under torture.
type rig struct {
	svc *cluster.Versioning
	be  *core.VersioningBackend
	d   *mpiio.VersioningDriver
	// vsec is the virtual clock, in seconds: one tick, one second. The
	// health monitor never reads the wall clock, so probation timing is
	// deterministic.
	vsec atomic.Int64
}

// boot validates the environment (cluster.NewVersioning refuses a bad
// shape with an error before building anything — which is why every
// schedule boots BEFORE it derives its plan: a plan drawn from an
// impossible pool is a panic, not a refusal), starts the deployment
// with one blob spanning span bytes, and installs the virtual clock.
func boot(env cluster.Env, span int64) (*rig, error) {
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return nil, err
	}
	be, err := svc.Backend(1, span)
	if err != nil {
		return nil, err
	}
	r := &rig{svc: svc, be: be, d: &mpiio.VersioningDriver{Backend: be}}
	if svc.Health != nil {
		svc.Health.SetClock(func() time.Time { return time.Unix(r.vsec.Load(), 0) })
	}
	return r, nil
}

// tick advances virtual time one second and runs one iteration of
// every background loop the deployment has: the healer, and the reaper
// when GC is on.
func (r *rig) tick() {
	r.vsec.Add(1)
	r.svc.Healer.Tick()
	if r.svc.Reaper != nil {
		r.svc.Reaper.Tick()
	}
}

// tickUntil ticks until done reports true, checking after every tick,
// and returns the number of ticks that took — or notConverged once max
// ticks have passed without it.
func (r *rig) tickUntil(max int, done func() bool) int {
	for t := 1; t <= max; t++ {
		r.tick()
		if done() {
			return t
		}
	}
	return notConverged
}

// tickUntilReclaimed ticks until the reaper has reclaimed every
// version retention dropped (the blob's pending set is empty),
// reporting false when max ticks did not get it there.
func (r *rig) tickUntilReclaimed(max int) (drained bool, err error) {
	ticks := r.tickUntil(max, func() bool {
		var info vmanager.GCInfo
		info, err = r.be.Blob().GCInfo()
		return err != nil || len(info.Pending) == 0
	})
	return ticks != notConverged && err == nil, err
}

// tickInBackground runs the background loops continuously beside a
// workload, as the daemon does; the returned function stops them and
// waits for the last tick to finish.
func (r *rig) tickInBackground() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			default:
				r.tick()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		wg.Wait()
	}
}

// healed reports whether the repair queue is drained and every chunk
// is back at full degree.
func (r *rig) healed() bool {
	return r.svc.Healer.QueueLen() == 0 && r.svc.Router.UnderReplicated() == 0
}

// healedAndSpread is healed plus a clean spread audit: count and
// distinct-domain spread both restored.
func (r *rig) healedAndSpread() bool {
	return r.healed() && len(r.svc.Router.SpreadAudit()) == 0
}

// killStores makes the given providers' chunk stores fail every call.
// Their liveness flags stay up: nobody has told the system, it must
// notice from errors.
func (r *rig) killStores(ids ...provider.ID) {
	for _, id := range ids {
		r.svc.Faults[id].SetDown(true)
	}
}

// detected counts how many of the given providers the health monitor
// has marked down.
func (r *rig) detected(ids ...provider.ID) int {
	n := 0
	for _, id := range ids {
		if r.svc.Health.State(id) == provider.Down {
			n++
		}
	}
	return n
}

// placedIn finds a chunk whose placement record still names a provider
// in one of the given failure domains.
func (r *rig) placedIn(domains ...string) (key chunk.Key, ids []provider.ID, found bool) {
	for _, key := range r.svc.Router.Keys() {
		ids, _ := r.svc.Router.Locate(key)
		for _, id := range ids {
			for _, d := range domains {
				if r.svc.Providers.DomainOf(id) == d {
					return key, ids, true
				}
			}
		}
	}
	return chunk.Key{}, nil, false
}

// race is the workload every schedule runs: each writer goroutine
// issues its calls in sequence, all writers racing, and once
// afterCalls writes have completed — successfully or not — event
// fires, exactly once, from whichever writer crossed the threshold
// while the others are still mid-call. A threshold past the end of the
// workload still fires the event before race returns, so the checks
// that follow always see the faulted system. Failures are collected,
// not fatal: what a failed write means (forbidden at R >= 2, the
// expected exposure at R = 1, irrelevant to a control run) is the
// schedule's to say. It returns the calls that committed, in
// completion order, and one error per call that did not.
func race(d mpiio.Driver, perWriter [][]verify.Call, afterCalls int, event func()) (ok []verify.Call, failures []error) {
	var once sync.Once
	var completed atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, calls := range perWriter {
		wg.Add(1)
		go func(calls []verify.Call) {
			defer wg.Done()
			for _, call := range calls {
				vec, err := verify.MakeVec(call)
				if err == nil {
					err = d.WriteList(vec, true)
				}
				mu.Lock()
				if err != nil {
					failures = append(failures, fmt.Errorf("call %d: %w", call.ID, err))
				} else {
					ok = append(ok, call)
				}
				mu.Unlock()
				if int(completed.Add(1)) >= afterCalls {
					once.Do(event)
				}
			}
		}(calls)
	}
	wg.Wait()
	once.Do(event)
	return ok, failures
}
