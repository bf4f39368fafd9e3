package bench

import (
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// ShardedPublishOptions tunes RunShardedPublish, the control-plane
// scaling scenario: E8's overlapped-small-write workload rerun against
// a sharded version manager. Each client writes its own blob, so with
// N shards the per-call control round trips (ticket grant, publish)
// spread across N independent control servers instead of queueing on
// one — the throughput ceiling sharding exists to remove.
type ShardedPublishOptions struct {
	// Shards is the control-plane shard count (default 1; 1 must
	// reproduce RunSmallWrites within noise — same code path, one
	// manager).
	Shards int
	// Iterations is the number of write calls per client (default 1).
	Iterations int
	// Batch is each shard's group-commit configuration.
	Batch vmanager.BatchConfig
	// PipeDepth is each client's async write-pipe depth; values <= 1
	// submit synchronously.
	PipeDepth int
	// BlobsPerClient is how many blobs each client spreads its calls
	// over, round-robin (default 1). A blob is pinned to one shard, so
	// the blob population — not the client count — bounds how evenly
	// the hash can spread control load; more blobs, better balance.
	BlobsPerClient int
}

// RunShardedPublish measures aggregated small-write throughput with
// the control plane partitioned across opts.Shards version-manager
// shards. The workload is RunSmallWrites' except that each client
// writes its own blobs (BlobsPerClient of them, round-robin): a blob
// is owned by a single shard, so per-blob control traffic cannot be
// spread — the scaling unit is the blob, exactly the contract
// ShardIndex pins down.
func RunShardedPublish(env cluster.Env, spec workload.OverlapSpec, opts ShardedPublishOptions) (Result, error) {
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
	bpc := opts.BlobsPerClient
	if bpc <= 0 {
		bpc = 1
	}
	env.VMBatch = opts.Batch
	env.VMShards = max(opts.Shards, 1)
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return Result{}, err
	}
	backends := make([][]*core.VersioningBackend, spec.Clients)
	for w := 0; w < spec.Clients; w++ {
		backends[w] = make([]*core.VersioningBackend, bpc)
		for k := 0; k < bpc; k++ {
			be, err := svc.Backend(uint64(w*bpc+k+1), spec.FileSpan())
			if err != nil {
				return Result{}, err
			}
			backends[w][k] = be
		}
	}

	// Only the measured phase counts toward the control meters: blob
	// creation above charged them too.
	for i := 0; i < svc.VM.NumShards(); i++ {
		svc.VM.Shard(i).Meter().Reset()
	}

	start := time.Now()
	errs := make([]error, spec.Clients)
	var wg sync.WaitGroup
	for w := 0; w < spec.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			exts := spec.ExtentsFor(w)
			pipes := make([]*core.WritePipe, bpc)
			for k := range pipes {
				pipes[k] = backends[w][k].NewPipe(depth)
			}
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
				if err := pipes[it%bpc].Submit(vec); err != nil {
					errs[w] = err
					return
				}
			}
			for _, pipe := range pipes {
				if _, err := pipe.Flush(); err != nil {
					errs[w] = err
					return
				}
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
	// The control plane's own cost, in the simulation's currency: the
	// makespan of the busiest shard's metered service time. Wall time
	// conflates this with host CPU capacity (on a small machine the
	// clients' real compute dominates); the meters don't.
	res.CtrlBusy = ctrlBusy(svc.VM)
	return res, nil
}

// ctrlBusy is the busiest control shard's metered service time.
func ctrlBusy(vm *vmanager.Sharded) time.Duration {
	var busiest time.Duration
	for i := 0; i < vm.NumShards(); i++ {
		busiest = max(busiest, vm.Shard(i).Meter().Stats().Busy)
	}
	return busiest
}
