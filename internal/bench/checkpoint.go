package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/workload"
)

// CheckpointOptions tunes RunCheckpointBlaster.
type CheckpointOptions struct {
	// Replicas is the replication degree R (default 2).
	Replicas int
	// Epochs is how many checkpoint epochs every rank writes
	// (default 6).
	Epochs int
	// KeepLast is the retention window: the reaper reclaims every
	// epoch older than the newest KeepLast (default 2).
	KeepLast int
	// Readers is how many concurrent restore readers page old epochs
	// back in while the blaster writes (default 2).
	Readers int
	// PipeDepth is each rank's write-pipe depth (default 2).
	PipeDepth int
	// Kill, when set, store-kills one provider halfway through the
	// run; the self-heal loop must absorb it with zero failed writes
	// or reads.
	Kill bool
	// Seed feeds the readers' version picks (default 14).
	Seed int64
}

// StageLatency is one pipeline stage's latency distribution, read out
// of the deployment's metrics registry.
type StageLatency struct {
	Stage         string
	Count         uint64
	P50, P95, P99 time.Duration
}

// CheckpointResult is one measured checkpoint-blaster run.
type CheckpointResult struct {
	Ranks, Epochs int
	Replicas      int
	WrittenBytes  int64
	Restores      int   // old-epoch restore reads completed
	Repaired      int64 // chunks re-replicated by the self-heal loop
	Reclaimed     int64 // versions reclaimed by the reaper
	// Stages are the per-stage latency histograms of the write and
	// read paths, in pipeline order.
	Stages []StageLatency
	// Metrics is the final flattened registry snapshot.
	Metrics map[string]float64
}

// stageHistograms names the per-stage latency histograms E14 reports,
// in pipeline order: control path (ticket, commit, publish), data path
// (pipe write, chunk put, chunk get), background loops (repair, reap).
var stageHistograms = []struct{ stage, name string }{
	{"ticket", "bs_vm_ticket_seconds"},
	{"commit", "bs_vm_commit_seconds"},
	{"publish", "bs_vm_publish_seconds"},
	{"pipe write", "bs_pipe_write_seconds"},
	{"chunk put", "bs_chunk_put_seconds"},
	{"chunk get", "bs_chunk_get_seconds"},
	{"repair", "bs_repair_seconds"},
	{"reap pass", "bs_reap_pass_seconds"},
}

// RunCheckpointBlaster measures experiment E14: Ranks processes
// checkpoint the strided N-1 pattern epoch after epoch through write
// pipes, while restore readers pin and page old epochs back in, the
// retention policy feeds the reaper a steady diet of expired epochs,
// and (with Kill) a provider dies mid-run for the self-heal loop to
// absorb. Every write and every read must succeed; the result reports
// the per-stage latency histograms the metrics registry recorded —
// the observability the layer exists for.
func RunCheckpointBlaster(env cluster.Env, spec workload.CheckpointSpec, opts CheckpointOptions) (CheckpointResult, error) {
	if err := spec.Validate(); err != nil {
		return CheckpointResult{}, err
	}
	if opts.Replicas < 1 {
		opts.Replicas = 2
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 6
	}
	if opts.KeepLast <= 0 {
		opts.KeepLast = 2
	}
	if opts.Readers < 0 {
		opts.Readers = 0
	} else if opts.Readers == 0 {
		opts.Readers = 2
	}
	if opts.PipeDepth <= 0 {
		opts.PipeDepth = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 14
	}
	env.Replicas = opts.Replicas
	env.SelfHeal = true
	env.FaultInjection = opts.Kill
	env.GC = true
	env.Reaper.RetainLast = opts.KeepLast
	env.Reaper.QueueDepth = 4096
	env.Healer.QueueDepth = 4096
	env.ReadCache = true
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return CheckpointResult{}, err
	}
	be, err := svc.Backend(1, spec.FileSpan())
	if err != nil {
		return CheckpointResult{}, err
	}
	res := CheckpointResult{Ranks: spec.Ranks, Epochs: opts.Epochs, Replicas: opts.Replicas}

	// Background driver: the healer and reaper tick concurrently with
	// the blaster, exactly as the daemon runs them.
	stopDriver := tickEvery(time.Millisecond, func() {
		svc.Healer.Tick()
		svc.Reaper.Tick()
	})
	fail := func(err error) (CheckpointResult, error) {
		stopDriver()
		return res, err
	}

	// Restore readers: each repeatedly pins a retained version, pages
	// its strided extents back in, verifies the constant-byte segment
	// stamp, and unpins. A version raced away by retention between
	// listing and pinning is skipped, never failed.
	var restores sync.WaitGroup
	readersStop := make(chan struct{})
	readErrs := make([]error, opts.Readers)
	var restoreCount int64
	var restoreMu sync.Mutex
	for i := 0; i < opts.Readers; i++ {
		restores.Add(1)
		go func(i int) {
			defer restores.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(i)))
			b := be.Blob()
			for {
				select {
				case <-readersStop:
					return
				default:
				}
				vs, err := b.Versions()
				if err != nil {
					readErrs[i] = err
					return
				}
				if len(vs) == 0 {
					continue
				}
				v := vs[rng.Intn(len(vs))]
				if v == 0 {
					continue // the empty initial snapshot has nothing to restore
				}
				if err := b.Pin(v); err != nil {
					continue // retention raced the pick; pick again
				}
				rank := rng.Intn(spec.Ranks)
				got, err := be.ReadListAt(core.Version(v), spec.ExtentsFor(rank))
				b.Unpin(v)
				if err != nil {
					readErrs[i] = fmt.Errorf("bench: restore of v%d rank %d: %w", v, rank, err)
					return
				}
				seg := spec.SegmentSize
				for s := 0; s < spec.Segments; s++ {
					first := got[int64(s)*seg]
					for _, x := range got[int64(s)*seg : int64(s+1)*seg] {
						if x != first {
							readErrs[i] = fmt.Errorf("bench: restore of v%d rank %d: torn segment %d", v, rank, s)
							return
						}
					}
				}
				restoreMu.Lock()
				restoreCount++
				restoreMu.Unlock()
			}
		}(i)
	}

	// The blaster: every epoch, all ranks submit their strided
	// checkpoint through per-rank pipes and flush. The payload byte
	// encodes (rank, epoch), so a torn segment is detectable.
	pipes := make([]*core.WritePipe, spec.Ranks)
	for r := range pipes {
		pipes[r] = be.NewPipe(opts.PipeDepth)
	}
	for epoch := 1; epoch <= opts.Epochs; epoch++ {
		if opts.Kill && epoch == opts.Epochs/2+1 {
			// Store-level kill: the health monitor must find out from
			// errors alone, and the quorum write path must ride it out.
			svc.Faults[0].SetDown(true)
		}
		err := eachClient(spec.Ranks, func(r int) error {
			exts := spec.ExtentsFor(r)
			buf := make([]byte, exts.TotalLength())
			stamp := byte(1 + (r*opts.Epochs+epoch)%250)
			for i := range buf {
				buf[i] = stamp
			}
			vec, err := extent.NewVec(exts, buf)
			if err == nil {
				if err = pipes[r].Submit(vec); err == nil {
					_, err = pipes[r].Flush()
				}
			}
			if err != nil {
				return fmt.Errorf("bench: epoch %d rank %d write failed: %w", epoch, r, err)
			}
			return nil
		})
		if err != nil {
			close(readersStop)
			restores.Wait()
			return fail(err)
		}
		res.WrittenBytes += spec.BytesPerRank() * int64(spec.Ranks)
	}
	close(readersStop)
	restores.Wait()
	for _, err := range readErrs {
		if err != nil {
			return fail(err)
		}
	}
	stopDriver()
	res.Restores = int(restoreCount)

	// Converge: drain the retention backlog first — dropped versions
	// are no longer published, so the healer will not scrub their
	// chunks, and until the reaper deletes them they sit in placement
	// looking degraded. Then a synchronous scrub pass restores full
	// replication of everything retained.
	if err := reapUntilDrained(svc, be, 5000); err != nil {
		return res, err
	}
	if opts.Kill {
		svc.Healer.Pass()
		if n := svc.Router.UnderReplicated(); n != 0 {
			return res, fmt.Errorf("bench: %d chunks still under-replicated after heal", n)
		}
	}
	res.Repaired = svc.Healer.Stats().Repaired
	res.Reclaimed = svc.Reaper.Stats().Reclaimed

	// Read the per-stage histograms out of the registry — the same
	// series bsctl metrics exposes from a live daemon.
	for _, sh := range stageHistograms {
		snap := svc.Metrics.Histogram(sh.name, nil).Snapshot()
		res.Stages = append(res.Stages, StageLatency{
			Stage: sh.stage,
			Count: snap.Count,
			P50:   time.Duration(snap.Quantile(0.50) * float64(time.Second)),
			P95:   time.Duration(snap.Quantile(0.95) * float64(time.Second)),
			P99:   time.Duration(snap.Quantile(0.99) * float64(time.Second)),
		})
	}
	res.Metrics = svc.Metrics.Snapshot()
	return res, nil
}
