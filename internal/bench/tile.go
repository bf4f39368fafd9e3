package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/workload"
)

// TileOptions tunes RunTile.
type TileOptions struct {
	// Collective uses MPI_File_write_at_all (two-phase I/O); otherwise
	// each rank writes independently.
	Collective bool
	// Iterations is the number of full-array dumps (default 1).
	Iterations int
	// Atomic enables MPI atomic mode (default true, matching the
	// paper's benchmark configuration for overlapped tiles).
	NonAtomic bool
	// Warmup runs the whole workload this many times untimed first.
	Warmup int
}

// dumpArray is the MPI side of the tile and halo workloads: every rank
// opens the shared file, sets its subarray view, fills its block with
// its own byte and writes it iters times — collectively, or
// independently with a barrier between dumps as mpi-tile-io does.
func dumpArray(sys *System, ranks, iters int, collective, atomic bool, subarray func(rank int) datatype.Subarray, bytes func(rank int) int64) error {
	return mpi.Run(ranks, func(c *mpi.Comm) error {
		f := mpiio.Open(c, sys.Driver)
		f.SetAtomicity(atomic)
		if err := f.SetView(mpiio.View{Disp: 0, Etype: datatype.Byte, Filetype: subarray(c.Rank())}); err != nil {
			return err
		}
		buf := make([]byte, bytes(c.Rank()))
		for i := range buf {
			buf[i] = byte(c.Rank() + 1)
		}
		for it := 0; it < iters; it++ {
			if collective {
				if err := f.WriteAtAll(0, buf); err != nil {
					return fmt.Errorf("rank %d iter %d: %w", c.Rank(), it, err)
				}
				continue
			}
			if err := f.WriteAt(0, buf); err != nil {
				return fmt.Errorf("rank %d iter %d: %w", c.Rank(), it, err)
			}
			c.Barrier()
		}
		return nil
	})
}

// RunTile measures the MPI-tile-IO workload: spec.Ranks() MPI processes
// each write their (overlapping) tile of a dense 2D array into the
// shared file, via a subarray file view.
func RunTile(kind SystemKind, env cluster.Env, spec workload.TileSpec, opts TileOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	iters := max(opts.Iterations, 1)
	sys, err := Build(kind, env, spec.FileBytes())
	if err != nil {
		return Result{}, err
	}
	ranks := spec.Ranks()
	runAll := func() error {
		return dumpArray(sys, ranks, iters, opts.Collective, !opts.NonAtomic, spec.Subarray,
			func(int) int64 { return spec.BytesPerRank() })
	}
	for i := 0; i < opts.Warmup; i++ {
		if err := runAll(); err != nil {
			return Result{}, err
		}
	}
	warmWait := sys.LockWait()
	start := time.Now()
	if err := runAll(); err != nil {
		return Result{}, err
	}
	return sys.result(ranks, ranks*iters, int64(ranks)*int64(iters)*spec.BytesPerRank(), time.Since(start), warmWait), nil
}

// RunHalo measures the ghost-cell dump workload (the motivating
// application pattern): each rank writes its halo-extended subdomain
// under MPI atomicity.
func RunHalo(kind SystemKind, env cluster.Env, spec workload.HaloSpec, iterations int) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	iterations = max(iterations, 1)
	dw, dh := spec.DomainDims()
	sys, err := Build(kind, env, int64(dw)*int64(dh)*spec.ElementSize)
	if err != nil {
		return Result{}, err
	}
	ranks := spec.Ranks()
	start := time.Now()
	if err := dumpArray(sys, ranks, iterations, false, true, spec.Subarray, spec.BytesPerRank); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)
	var bytes int64
	for r := 0; r < ranks; r++ {
		bytes += spec.BytesPerRank(r)
	}
	return sys.result(ranks, ranks*iterations, bytes*int64(iterations), elapsed, 0), nil
}
