package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	bsmetrics "repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/vmanager"
)

// errMismatch marks a read that returned the wrong bytes. It aborts
// the run with a non-zero exit: a benchmark of a storage service that
// returns wrong data has no numbers worth reporting.
var errMismatch = errors.New("benchmark: byte mismatch")

// deployment is one segment's deployment: a single in-process node
// hosting all three roles behind remote.Listen, wall-clock (zero cost
// model), reached over TCP loopback by one framed client per rank.
type deployment struct {
	node     *remote.Node
	reg      *bsmetrics.Registry
	router   *provider.Router
	vm       *vmanager.Sharded
	meta     *metadata.Store
	cache    *provider.ReadCache
	faults   []*chunk.FaultStore
	degraded atomic.Int64

	clients []*remote.Client
	svc     []blob.Services // per rank, decorated when traced
	rc      []*rankCtx
}

// boot starts the node and dials the ranks' clients. It is configured
// only through public constructors and setters, as blobseerd's flags
// would configure it. faulty wraps every store in a chunk.FaultStore
// (the failure-accounting test); tr, when non-nil, interposes the
// timing decorators.
func boot(p params, tr *tracer, faulty bool) (*deployment, error) {
	c := &deployment{reg: bsmetrics.NewRegistry()}
	pool := provider.NewManager()
	for i := 0; i < p.Providers; i++ {
		store, err := chunk.OpenStore("mem://", iosim.NewMeter(iosim.CostModel{}, true))
		if err != nil {
			return nil, err
		}
		if faulty {
			fs := chunk.NewFaultStore(store)
			c.faults = append(c.faults, fs)
			store = fs
		}
		if tr != nil {
			store = &tracedStore{store, tr}
		}
		pool.Register(provider.NewInDomain(provider.ID(i), store, provider.DomainLabel(i, p.Providers, p.Domains)))
	}
	c.router = provider.NewRouter(pool)
	c.router.SetMetrics(c.reg)
	c.router.SetReplicas(p.Replicas)
	if p.CodingK > 0 {
		if err := c.router.SetCoding(p.CodingK, p.CodingM); err != nil {
			return nil, err
		}
	}
	c.router.SetDegradedHandler(func(chunk.Key) { c.degraded.Add(1) })
	if p.CacheBytes > 0 {
		c.cache = provider.NewReadCache(provider.ReadCacheConfig{MaxBytes: p.CacheBytes})
		c.cache.SetMetrics(c.reg)
		c.router.SetReadCache(c.cache)
	}
	c.vm = vmanager.NewSharded(iosim.CostModel{}, 1)
	c.vm.SetMetrics(c.reg)
	c.meta = metadata.NewStore(8, iosim.CostModel{})

	var vmRole remote.VMBackend = c.vm
	if tr != nil {
		vmRole = &tracedVMBackend{c.vm, tr}
	}
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{VM: vmRole, Meta: c.meta, Data: c.router, Metrics: c.reg})
	if err != nil {
		return nil, err
	}
	c.node = node
	ep := remote.Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()}
	for r := 0; r < ranks; r++ {
		cl, err := remote.DialFramed(ep)
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
		rc := &rankCtx{rank: r}
		svc := cl.Services()
		if tr != nil {
			svc = tr.traceServices(svc, rc)
		}
		c.svc = append(c.svc, svc)
		c.rc = append(c.rc, rc)
	}
	return c, nil
}

func (c *deployment) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	c.node.Close()
}

// storedBytes is what the providers hold, replicas and parity
// included.
func (c *deployment) storedBytes() int64 {
	var total int64
	for _, u := range c.router.Usage() {
		total += u.Bytes
	}
	return total
}

// --- measurement brackets ---

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the process's cumulative heap allocation, read without
// stopping the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time. Client and server
// share the process, so this is the whole stack's cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bracket accumulates wall time, CPU time and allocation over the
// timed epochs of one phase. begin and end are called by the driving
// goroutine while no rank is running, so verification between epochs
// stays outside all three.
type bracket struct {
	wall, cpu time.Duration
	alloc     uint64

	t0 time.Time
	c0 time.Duration
	a0 uint64
}

func (b *bracket) begin() {
	b.a0 = allocBytes()
	b.c0 = cpuTime()
	b.t0 = time.Now()
}

func (b *bracket) end() {
	b.wall += time.Since(b.t0)
	b.cpu += cpuTime() - b.c0
	b.alloc += allocBytes() - b.a0
}

// --- one segment ---

// segment is the state of one segment while it runs and its raw
// results afterwards. A workload run is several segments; each boots a
// fresh cluster so that resident data, and with it the heap the
// collector has to walk, stays the same size in every segment.
type segment struct {
	p    params
	rng  *rand.Rand
	c    *deployment
	tr   *tracer
	test *testHooks

	inputSum     uint32 // checksum of the generated inputs
	setup        time.Duration
	write, read  bracket
	writeBytes   int64 // user bytes acknowledged and published in timed epochs
	readBytes    int64 // user bytes returned and verified in timed epochs
	preloadBytes int64
	stored       int64
	writeLat     []time.Duration
	readLat      []time.Duration
	lateness     []time.Duration
	imbalance    []float64
	ops, failed  int

	// Server-side counters over the timed phases.
	regStart, regEnd map[string]float64
	nodesStored      int
	degraded         int64
	cacheStats       provider.ReadCacheStats

	// Traced segments only: the per-layer metrics, and the ms-per-op
	// terms of the accounting identity.
	layer, account map[string]float64
}

// timedWall is the length of the segment's timed phases. On the
// concurrent workload the write and read brackets are one and the same
// phase.
func (s *segment) timedWall() time.Duration {
	if s.p.Name == wlSubarray {
		return s.read.wall
	}
	return s.write.wall + s.read.wall
}

// testHooks lets bench_test.go inject faults; nil outside tests.
type testHooks struct {
	// failPutEpochs lists write epochs before which one provider store
	// is armed to fail its next put, so exactly one write of that
	// epoch fails.
	failPutEpochs map[int]bool
	// tamper, when set, is applied to every buffer read back before it
	// is verified.
	tamper func([]byte)
}

// rankResult is what one rank's call in an epoch reports.
type rankResult struct {
	bytes int64
	lat   time.Duration
	err   error
}

// runRanks runs fn once on every rank concurrently, between two
// barriers, as one bulk-synchronous step: the bracket's wall is the
// slowest rank's.
func (s *segment) runRanks(b *bracket, kind spanKind, fn func(rank int) (int64, error)) [ranks]rankResult {
	var res [ranks]rankResult
	var wg sync.WaitGroup
	b.begin()
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var done func(int64)
			if s.tr != nil {
				done = s.tr.beginOp(s.c.rc[r], kind)
			}
			start := time.Now()
			n, err := fn(r)
			res[r] = rankResult{n, time.Since(start), err}
			if done != nil && err == nil {
				done(n)
			}
		}(r)
	}
	wg.Wait()
	b.end()
	return res
}

// epoch is one timed bulk-synchronous step. A failed call is counted,
// its bytes and latency are not.
func (s *segment) epoch(b *bracket, kind spanKind, fn func(rank int) (int64, error)) [ranks]rankResult {
	res := s.runRanks(b, kind, fn)
	lats := make([]float64, 0, ranks)
	for _, r := range res {
		s.ops++
		if r.err != nil {
			s.failed++
			continue
		}
		lats = append(lats, float64(r.lat))
		if kind == spOpWrite {
			s.writeBytes += r.bytes
			s.writeLat = append(s.writeLat, r.lat)
		} else {
			s.readBytes += r.bytes
			s.readLat = append(s.readLat, r.lat)
		}
	}
	if len(lats) == ranks {
		s.imbalance = append(s.imbalance, slices.Max(lats)/median(lats))
	}
	return res
}

// check verifies one buffer read back from the service; what and args
// name it, fmt-style, if it is wrong.
func (s *segment) check(got, want []byte, what string, args ...any) error {
	if s.test != nil && s.test.tamper != nil {
		s.test.tamper(got)
	}
	if bytes.Equal(got, want) {
		return nil
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	return fmt.Errorf("%w: %s: read %d bytes, want %d, first difference at byte %d",
		errMismatch, fmt.Sprintf(what, args...), len(got), len(want), at)
}

// fill fills buf with seeded pseudo-random bytes and folds its head
// into the segment's input checksum.
func (s *segment) fill(buf []byte) {
	s.rng.Read(buf)
	s.inputSum = crc32.Update(s.inputSum, castagnoli, buf[:min(len(buf), 64<<10)])
}

// notePick folds a seed-derived offset or pick into the input checksum.
func (s *segment) notePick(v int64) {
	s.inputSum = crc32.Update(s.inputSum, castagnoli, binary.LittleEndian.AppendUint64(nil, uint64(v)))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// startTimed opens a timed phase: garbage from what came before is
// collected off the clock, and the tracer starts keeping spans.
func (s *segment) startTimed() {
	runtime.GC()
	if s.regStart == nil {
		s.regStart = s.c.reg.Snapshot()
	}
	if s.tr != nil {
		s.tr.on.Store(true)
	}
}

// pauseTimed stops the tracer for untimed work between two phases.
func (s *segment) pauseTimed() {
	if s.tr != nil {
		s.tr.on.Store(false)
	}
}

// endTimed closes the last timed phase, before the closing
// verification reads disturb the counters.
func (s *segment) endTimed() {
	s.pauseTimed()
	s.regEnd = s.c.reg.Snapshot()
	s.stored = s.c.storedBytes()
	s.nodesStored = s.c.meta.Count()
	s.degraded = s.c.degraded.Load()
	if s.c.cache != nil {
		s.cacheStats = s.c.cache.Stats()
	}
}

// --- statistics ---

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between order statistics. It sorts a
// copy.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1, Q2, Q3 as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is how the acceptance spread is
// defined. Fewer than two values have no spread.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func durationsMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = float64(x) / 1e6
	}
	return out
}

const mib = 1 << 20
