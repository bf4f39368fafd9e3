// Package torture is a randomized atomicity torture harness: N
// goroutine writers fire overlap-heavy random extent lists at a storage
// backend, and the final state is checked for serializability with
// internal/verify — the experimental definition of MPI atomic mode.
// Every backend that claims MPI atomicity (the versioning backend,
// batched or not, and every locking strategy of the Lustre-like
// baseline) must survive this suite; it is the safety net under which
// the version manager's group-commit pipeline was built.
//
// All randomness is derived from Config.Seed, and call generation
// happens before any goroutine starts, so a failing run is reproduced
// by its seed alone (the scheduler only picks WHICH serial order the
// backend must be equivalent to, never the calls themselves).
//
// Beyond pure atomicity, the suite also tortures durability: crash.go
// runs the same workload on replicated deployments while a
// seed-scheduled data provider dies mid-run (see CrashConfig/RunCrash),
// asserting that writes keep committing via the write quorum, the
// outcome stays serializable, and with R >= 2 every published snapshot
// survives the loss — and a repair pass restores enough redundancy to
// survive the next one.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/verify"
)

// Config parameterizes one torture run. All calls land inside a byte
// window of the given size, which is what makes the workload
// overlap-heavy: with Writers*CallsPerWriter extent lists drawn from
// the same small window, most bytes are contested by several calls.
type Config struct {
	// Seed drives all randomness; equal seeds generate equal call sets.
	Seed int64
	// Writers is the number of concurrent writer goroutines.
	Writers int
	// CallsPerWriter is the number of atomic WriteList calls each
	// writer issues, in its own sequence. Writers*CallsPerWriter must
	// stay <= 255 (verify stamp bytes).
	CallsPerWriter int
	// Window is the size of the contested byte range.
	Window int64
	// MaxExtents bounds the extents per call (>= 1).
	MaxExtents int
	// MaxExtentLen bounds each extent's length (>= 1).
	MaxExtentLen int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Writers < 1 || c.CallsPerWriter < 1 {
		return fmt.Errorf("torture: need positive writers/calls, got %+v", c)
	}
	if c.Writers*c.CallsPerWriter > 255 {
		return fmt.Errorf("torture: %d calls exceed the 255 stamp-byte limit", c.Writers*c.CallsPerWriter)
	}
	if c.Window < 1 || c.MaxExtents < 1 || c.MaxExtentLen < 1 {
		return fmt.Errorf("torture: need positive window/extents/length, got %+v", c)
	}
	return nil
}

// Calls deterministically generates the per-writer call lists. Call IDs
// are dense in [1, Writers*CallsPerWriter], writer-major.
func (c Config) Calls() ([][]verify.Call, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	out := make([][]verify.Call, c.Writers)
	for w := 0; w < c.Writers; w++ {
		out[w] = make([]verify.Call, c.CallsPerWriter)
		for k := 0; k < c.CallsPerWriter; k++ {
			n := 1 + rng.Intn(c.MaxExtents)
			var l extent.List
			for i := 0; i < n; i++ {
				length := 1 + rng.Int63n(c.MaxExtentLen)
				if length > c.Window {
					length = c.Window
				}
				off := rng.Int63n(c.Window - length + 1)
				l = append(l, extent.Extent{Offset: off, Length: length})
			}
			// Normalize: extents within one call must not overlap each
			// other (a single MPI call's regions are disjoint); merging
			// random draws enforces that without biasing the layout.
			out[w][k] = verify.Call{ID: w*c.CallsPerWriter + k + 1, Extents: l.Normalize()}
		}
	}
	return out, nil
}

// Span returns the byte range a run touches (the whole window).
func (c Config) Span() int64 { return c.Window }

// Run drives the configured calls concurrently against the driver —
// each writer goroutine issuing its calls in sequence, all writers
// racing — then reads the final state back and checks that it is
// equivalent to some serial order of the whole calls. Any error is
// wrapped with the seed so the run can be replayed.
func Run(d mpiio.Driver, cfg Config) error {
	perWriter, err := cfg.Calls()
	if err != nil {
		return err
	}
	// The plain atomicity run is the race with no fault in it.
	all, failures := race(d, perWriter, 0, func() {})
	if len(failures) > 0 {
		return failf(cfg.Seed, "%w", errors.Join(failures...))
	}
	if err := verify.CheckCalls(reader{d}, all); err != nil {
		return failf(cfg.Seed, "%w", err)
	}
	return nil
}

// reader adapts a driver to the verifier's read interface.
type reader struct{ d mpiio.Driver }

func (r reader) ReadList(q extent.List, atomic bool) ([]byte, error) {
	return r.d.ReadList(q, atomic)
}

// awaitFirst keeps a schedule's concurrent readers running after its
// writers are done until one read has completed or failed, for a
// bounded time. A write phase lasts milliseconds; on a loaded host the
// scheduler can starve a reader for all of it, and stopping the reader
// then would trip the schedule's "lost its teeth" check through no
// fault of the system under test.
func awaitFirst(completed *atomic.Int64, failed <-chan error) {
	deadline := time.Now().Add(10 * time.Second)
	for completed.Load() == 0 && len(failed) == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
}
