// Package bench is the experiment harness: it builds each system under
// test with identical simulated hardware, drives the paper's workloads
// against it with concurrent clients, and reports aggregated
// throughput, lock wait time and atomicity-verification results. Every
// experiment is produced by one of the Run functions here; the
// experiments themselves — which cells, in which order, under which
// names — are the table in internal/experiments, driven by
// cmd/benchall and the root bench_test.go.
package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/lockfs"
	"repro/internal/mpiio"
	"repro/internal/verify"
	"repro/internal/workload"
)

// SystemKind identifies one system under test.
type SystemKind int

// The systems compared in the paper's evaluation.
const (
	// Versioning is the paper's storage backend.
	Versioning SystemKind = iota
	// LockWholeFile is the Lustre baseline with whole-file locking
	// (Ross et al. 2005).
	LockWholeFile
	// LockBounding is the Lustre baseline with bounding-range locking
	// (the default POSIX-file-system scheme the paper describes).
	LockBounding
	// LockList is the Lustre baseline taking one extent lock per
	// region (ordered two-phase locking).
	LockList
	// LockConflictDetect is the Lustre baseline with the
	// conflict-detection protocol (Sehrish et al. 2009).
	LockConflictDetect
	// LockDataSieve is the Lustre baseline with ROMIO-style data
	// sieving: one read-modify-write of the bounding range under its
	// lock.
	LockDataSieve
	// PosixNoAtomic writes each region as an independent POSIX call:
	// fast but without MPI atomicity (the inconsistent strawman).
	PosixNoAtomic
)

// AllAtomicSystems lists every system that claims MPI atomicity, in
// report order.
func AllAtomicSystems() []SystemKind {
	return []SystemKind{Versioning, LockWholeFile, LockBounding, LockList, LockConflictDetect, LockDataSieve}
}

// String names the system for tables.
func (k SystemKind) String() string {
	switch k {
	case Versioning:
		return "versioning"
	case LockWholeFile:
		return "lock-wholefile"
	case LockBounding:
		return "lock-bounding"
	case LockList:
		return "lock-list"
	case LockConflictDetect:
		return "conflict-detect"
	case LockDataSieve:
		return "lock-datasieve"
	case PosixNoAtomic:
		return "posix-noatomic"
	default:
		return fmt.Sprintf("system(%d)", int(k))
	}
}

func (k SystemKind) strategy() (mpiio.Strategy, bool) {
	switch k {
	case LockWholeFile:
		return mpiio.StrategyWholeFile, true
	case LockBounding:
		return mpiio.StrategyBoundingRange, true
	case LockList:
		return mpiio.StrategyListLock, true
	case LockConflictDetect:
		return mpiio.StrategyConflictDetect, true
	case LockDataSieve:
		return mpiio.StrategyDataSieve, true
	case PosixNoAtomic:
		return mpiio.StrategyPOSIX, true
	default:
		return 0, false
	}
}

// System is one instantiated system under test.
type System struct {
	Kind   SystemKind
	Driver mpiio.Driver

	backend  *core.VersioningBackend // non-nil for Versioning
	lockFile *lockfs.File            // non-nil for lock systems
	detector *mpiio.Detector
}

// Build instantiates a system over the given environment, sized for a
// file spanning span bytes.
func Build(kind SystemKind, env cluster.Env, span int64) (*System, error) {
	if kind == Versioning {
		svc, err := cluster.NewVersioning(env)
		if err != nil {
			return nil, err
		}
		be, err := svc.Backend(1, span)
		if err != nil {
			return nil, err
		}
		return &System{Kind: kind, Driver: &mpiio.VersioningDriver{Backend: be}, backend: be}, nil
	}
	strategy, ok := kind.strategy()
	if !ok {
		return nil, fmt.Errorf("bench: unknown system %v", kind)
	}
	fs, err := cluster.NewLustre(env)
	if err != nil {
		return nil, err
	}
	f, err := fs.File("shared")
	if err != nil {
		return nil, err
	}
	det := mpiio.NewDetector(env.CtrlModel)
	// Conflict detection compares against every in-flight operation;
	// charge one control round trip per peer (the cost Sehrish et al.
	// acknowledge for non-conflicting workloads).
	det.ScanPerPeer = env.CtrlModel.PerOp
	return &System{
		Kind:     kind,
		Driver:   &mpiio.LockFSDriver{File: f, Strategy: strategy, Det: det},
		lockFile: f,
		detector: det,
	}, nil
}

// LockWait returns the cumulative lock wait time (zero for systems
// without locks).
func (s *System) LockWait() time.Duration {
	if s.lockFile == nil {
		return 0
	}
	return s.lockFile.Stats().LockStats.TotalWait
}

// result assembles the standard cell of a run on this system; warmWait
// is the lock wait accumulated before the measured phase began.
func (s *System) result(clients, calls int, bytes int64, elapsed, warmWait time.Duration) Result {
	res := Result{
		System:   s.Kind,
		Clients:  clients,
		Calls:    calls,
		Bytes:    bytes,
		Elapsed:  elapsed,
		MBps:     mbps(bytes, elapsed),
		LockWait: s.LockWait() - warmWait,
	}
	if s.detector != nil {
		res.Conflicts = s.detector.Stats().Conflicts
	}
	return res
}

// Result is one measured experiment cell.
type Result struct {
	System    SystemKind
	Clients   int
	Calls     int           // total write calls issued
	Bytes     int64         // total payload bytes
	Elapsed   time.Duration // wall time for the whole run
	MBps      float64       // aggregated throughput
	LockWait  time.Duration // cumulative lock wait (locking systems)
	CtrlBusy  time.Duration // busiest control shard's metered service time (small-write runs)
	Conflicts int64         // detector conflicts (conflict-detect only)
	Verified  bool          // atomicity verification ran and passed
	VerifyErr error         // non-nil if verification failed
}

// OverlapOptions tunes RunOverlap.
type OverlapOptions struct {
	// Iterations is the number of write calls per client (default 1).
	Iterations int
	// Warmup runs the whole workload this many times untimed before
	// measuring, so heap growth and page faults do not pollute the
	// measured phase. Not compatible with Verify (warm-up writes carry
	// no verification stamps).
	Warmup int
	// Verify re-reads the final state and checks MPI atomicity
	// (serializability). Requires Clients*Iterations <= 255.
	Verify bool
}

// RunOverlap measures Experiment-1-style concurrent overlapped
// non-contiguous writes: every client issues atomic WriteList calls
// with the spec's extent pattern, all clients running concurrently.
func RunOverlap(kind SystemKind, env cluster.Env, spec workload.OverlapSpec, opts OverlapOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 1
	}
	sys, err := Build(kind, env, spec.FileSpan())
	if err != nil {
		return Result{}, err
	}

	type callID struct{ client, iter int }
	ids := func(c callID) int { return c.client*iters + c.iter + 1 }
	var calls []verify.Call
	if opts.Verify {
		if spec.Clients*iters > 255 {
			return Result{}, fmt.Errorf("bench: verify needs clients*iterations <= 255, got %d", spec.Clients*iters)
		}
		for w := 0; w < spec.Clients; w++ {
			for it := 0; it < iters; it++ {
				calls = append(calls, verify.Call{ID: ids(callID{w, it}), Extents: spec.ExtentsFor(w)})
			}
		}
	}

	if opts.Warmup > 0 && opts.Verify {
		return Result{}, fmt.Errorf("bench: Warmup and Verify are mutually exclusive")
	}
	runAll := func(rounds int, stamped bool) error {
		write := func(_, _ int, vec extent.Vec) error { return sys.Driver.WriteList(vec, true) }
		if !stamped {
			return writePhase(spec.Clients, rounds, spec.ExtentsFor, write)
		}
		// Verification needs every call to carry its own stamp; the
		// payloads are built before the clients are released, so the
		// phase itself is nothing but write calls.
		vecs := make([]extent.Vec, len(calls))
		for i, call := range calls {
			var err error
			if vecs[i], err = verify.MakeVec(call); err != nil {
				return err
			}
		}
		return eachClient(spec.Clients, func(w int) error {
			for it := 0; it < rounds; it++ {
				if err := write(w, it, vecs[ids(callID{w, it})-1]); err != nil {
					return err
				}
			}
			return nil
		})
	}

	for i := 0; i < opts.Warmup; i++ {
		if err := runAll(iters, false); err != nil {
			return Result{}, err
		}
	}
	warmWait := sys.LockWait()

	start := time.Now()
	if err := runAll(iters, opts.Verify); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	res := sys.result(spec.Clients, spec.Clients*iters, int64(spec.Clients)*int64(iters)*spec.BytesPerClient(), elapsed, warmWait)
	if opts.Verify {
		res.VerifyErr = verify.CheckCalls(readerFor(sys), calls)
		res.Verified = res.VerifyErr == nil
	}
	return res, nil
}

// readerFor adapts a system's driver to the verifier interface.
func readerFor(s *System) verify.Reader { return driverReader{s.Driver} }

type driverReader struct{ d mpiio.Driver }

func (r driverReader) ReadList(q extent.List, atomic bool) ([]byte, error) {
	return r.d.ReadList(q, atomic)
}
