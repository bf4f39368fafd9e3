package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// SmallWriteOptions tunes RunSmallWrites, the overlapped-small-write
// scenario that exercises the control plane: many clients issue trains
// of small atomic WriteList calls through write pipes, so the per-call
// control round trips (ticket grant, publish) dominate unless the
// version manager amortizes them into groups (E8) or spreads them
// across shards (E16).
type SmallWriteOptions struct {
	// Iterations is the number of write calls per client (default 1).
	Iterations int
	// Batch is the version manager's (each shard's) group-commit
	// configuration; the zero value measures one round trip per call.
	Batch vmanager.BatchConfig
	// PipeDepth is each client's async write-pipe depth; values <= 1
	// submit synchronously.
	PipeDepth int
	// Shards is the control-plane shard count (default 1: the single
	// manager).
	Shards int
	// BlobsPerClient is how many blobs of its own each client spreads
	// its calls over, round-robin. Zero is E8's shape: every client
	// writes the one shared blob. A blob is pinned to one shard, so
	// with shards the blob population — not the client count — bounds
	// how evenly the hash can spread control load; more blobs, better
	// balance.
	BlobsPerClient int
}

// RunSmallWrites measures aggregated throughput of concurrent
// overlapped small writes against the versioning backend. Comparing
// Batch.MaxBatch = 1 against larger groups isolates the group-commit
// win on the metered cost model; raising Shards with each client on
// its own blobs spreads the control round trips across N independent
// control servers instead of queueing them on one — a blob is owned by
// a single shard, so per-blob control traffic cannot be spread: the
// scaling unit is the blob, exactly the contract ShardIndex pins down.
func RunSmallWrites(env cluster.Env, spec workload.OverlapSpec, opts SmallWriteOptions) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	iters := max(opts.Iterations, 1)
	depth := max(opts.PipeDepth, 1)
	env.VMBatch = opts.Batch
	env.VMShards = max(opts.Shards, 1)
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return Result{}, err
	}
	// pipes[w] are client w's write pipes, one per blob it writes.
	pipes := make([][]*core.WritePipe, spec.Clients)
	if opts.BlobsPerClient <= 0 {
		be, err := svc.Backend(1, spec.FileSpan())
		if err != nil {
			return Result{}, err
		}
		for w := range pipes {
			pipes[w] = []*core.WritePipe{be.NewPipe(depth)}
		}
	} else {
		for w := range pipes {
			for k := 0; k < opts.BlobsPerClient; k++ {
				be, err := svc.Backend(uint64(w*opts.BlobsPerClient+k+1), spec.FileSpan())
				if err != nil {
					return Result{}, err
				}
				pipes[w] = append(pipes[w], be.NewPipe(depth))
			}
		}
	}
	// Only the measured phase counts toward the control meters: blob
	// creation above charged them too.
	for i := 0; i < svc.VM.NumShards(); i++ {
		svc.VM.Shard(i).Meter().Reset()
	}

	start := time.Now()
	err = writePhase(spec.Clients, iters, spec.ExtentsFor, func(w, it int, vec extent.Vec) error {
		if err := pipes[w][it%len(pipes[w])].Submit(vec); err != nil || it < iters-1 {
			return err
		}
		for _, pipe := range pipes[w] {
			if _, err := pipe.Flush(); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		System:  Versioning,
		Clients: spec.Clients,
		Calls:   spec.Clients * iters,
		Bytes:   int64(spec.Clients) * int64(iters) * spec.BytesPerClient(),
		Elapsed: elapsed,
	}
	res.MBps = mbps(res.Bytes, elapsed)
	// The control plane's own cost, in the simulation's currency: the
	// makespan of the busiest shard's metered service time. Wall time
	// conflates this with host CPU capacity (on a small machine the
	// clients' real compute dominates); the meters don't.
	for i := 0; i < svc.VM.NumShards(); i++ {
		res.CtrlBusy = max(res.CtrlBusy, svc.VM.Shard(i).Meter().Stats().Busy)
	}
	return res, nil
}

// BatchLabel names a group-commit configuration for tables.
func BatchLabel(cfg vmanager.BatchConfig) string {
	if cfg.MaxBatch <= 1 {
		return "batch=1"
	}
	return fmt.Sprintf("batch=%d", cfg.MaxBatch)
}
