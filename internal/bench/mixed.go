package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MixedSpec describes the producer/consumer experiment (E7): Writers
// keep producing atomic overlapped non-contiguous updates while
// Readers concurrently read the whole produced region under MPI
// atomicity. On the versioning backend, readers pin published
// snapshots and never interact with writers; on locking backends,
// atomic readers take shared locks that conflict with the writers'
// exclusive locks.
type MixedSpec struct {
	Writers, Readers      int
	WriteCalls, ReadCalls int
	Pattern               workload.OverlapSpec // Clients field is overridden by Writers
}

// MixedResult reports the two sides' aggregated throughputs and the
// reader-visible latency. Raw bandwidth equalizes once the storage
// servers saturate; the quantity versioning improves is read latency —
// a locking reader queues behind every in-flight exclusive writer,
// while a versioning reader serves from an immutable snapshot
// immediately.
type MixedResult struct {
	System     SystemKind
	WriteMBps  float64
	ReadMBps   float64
	Elapsed    time.Duration
	WriteBytes int64
	ReadBytes  int64
	LockWait   time.Duration

	ReadLatency     stats.Summary
	MeanReadLatency time.Duration
	MaxReadLatency  time.Duration
}

// RunMixed runs writers and readers concurrently and measures each
// side's aggregated throughput over the common wall-clock window.
func RunMixed(kind SystemKind, env cluster.Env, spec MixedSpec) (MixedResult, error) {
	p := spec.Pattern
	p.Clients = spec.Writers
	if err := p.Validate(); err != nil {
		return MixedResult{}, err
	}
	if spec.Readers < 1 || spec.WriteCalls < 1 || spec.ReadCalls < 1 {
		return MixedResult{}, fmt.Errorf("bench: mixed spec needs positive readers/calls, got %+v", spec)
	}
	sys, err := Build(kind, env, p.FileSpan())
	if err != nil {
		return MixedResult{}, err
	}

	// Pre-populate so readers have data from the start, and warm up.
	seed := make([]byte, p.FileSpan())
	for i := range seed {
		seed[i] = 0xFF
	}
	seedVec, err := extent.NewVec(extent.List{{Offset: 0, Length: p.FileSpan()}}, seed)
	if err != nil {
		return MixedResult{}, err
	}
	if err := sys.Driver.WriteList(seedVec, true); err != nil {
		return MixedResult{}, err
	}
	warmWait := sys.LockWait()

	// Both sides run over the common window: the writers' phase and the
	// readers' whole-file scans start together.
	var readLat []time.Duration
	start := time.Now()
	err = eachClient(2, func(side int) error {
		if side == 0 {
			return writePhase(spec.Writers, spec.WriteCalls, p.ExtentsFor, func(_, _ int, vec extent.Vec) error {
				return sys.Driver.WriteList(vec, true)
			})
		}
		var err error
		readLat, err = readPhase(sys.Driver, spec.Readers, spec.ReadCalls, p.FileSpan())
		return err
	})
	elapsed := time.Since(start)
	if err != nil {
		return MixedResult{}, err
	}

	res := MixedResult{
		System:     kind,
		Elapsed:    elapsed,
		WriteBytes: int64(spec.Writers) * int64(spec.WriteCalls) * p.BytesPerClient(),
		ReadBytes:  int64(spec.Readers) * int64(spec.ReadCalls) * p.FileSpan(),
		LockWait:   sys.LockWait() - warmWait,
	}
	res.WriteMBps = mbps(res.WriteBytes, elapsed)
	res.ReadMBps = mbps(res.ReadBytes, elapsed)
	res.ReadLatency = stats.Summarize(readLat)
	res.MeanReadLatency = res.ReadLatency.Mean
	res.MaxReadLatency = res.ReadLatency.Max
	return res, nil
}
