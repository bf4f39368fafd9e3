package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// SmallWriteOptions tunes RunSmallWrites, the overlapped-small-write
// scenario that exercises the version manager's group-commit pipeline:
// many clients issue trains of small atomic WriteList calls through
// write pipes, so the per-call control round trips (ticket grant,
// publish) dominate unless the manager amortizes them into groups.
type SmallWriteOptions struct {
	// Iterations is the number of write calls per client (default 1).
	Iterations int
	// Batch is the version manager's group-commit configuration; the
	// zero value measures today's one-round-trip-per-call behavior.
	Batch vmanager.BatchConfig
	// PipeDepth is each client's async write-pipe depth; values <= 1
	// submit synchronously.
	PipeDepth int
}

// RunSmallWrites measures aggregated throughput of concurrent
// overlapped small writes against the versioning backend under the
// given group-commit configuration. Comparing Batch.MaxBatch = 1
// against larger groups isolates the group-commit win on the metered
// cost model.
func RunSmallWrites(env cluster.Env, spec workload.OverlapSpec, opts SmallWriteOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	iters := opts.Iterations
	if iters <= 0 {
		iters = 1
	}
	depth := opts.PipeDepth
	if depth <= 1 {
		depth = 1
	}
	env.VMBatch = opts.Batch
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return Result{}, err
	}
	be, err := svc.Backend(1, spec.FileSpan())
	if err != nil {
		return Result{}, err
	}

	start := time.Now()
	errs := make([]error, spec.Clients)
	var wg sync.WaitGroup
	for w := 0; w < spec.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exts := spec.ExtentsFor(w)
			pipe := be.NewPipe(depth)
			for it := 0; it < iters; it++ {
				buf := make([]byte, exts.TotalLength())
				for i := range buf {
					buf[i] = byte(w + 1)
				}
				vec, err := extent.NewVec(exts, buf)
				if err != nil {
					errs[w] = err
					return
				}
				if err := pipe.Submit(vec); err != nil {
					errs[w] = err
					return
				}
			}
			if _, err := pipe.Flush(); err != nil {
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	res := Result{
		System:  Versioning,
		Clients: spec.Clients,
		Calls:   spec.Clients * iters,
		Bytes:   int64(spec.Clients) * int64(iters) * spec.BytesPerClient(),
		Elapsed: elapsed,
	}
	res.MBps = float64(res.Bytes) / (1 << 20) / elapsed.Seconds()
	res.CtrlBusy = ctrlBusy(svc.VM)
	return res, nil
}

// BatchLabel names a group-commit configuration for tables.
func BatchLabel(cfg vmanager.BatchConfig) string {
	if cfg.MaxBatch <= 1 {
		return "batch=1"
	}
	return fmt.Sprintf("batch=%d", cfg.MaxBatch)
}
