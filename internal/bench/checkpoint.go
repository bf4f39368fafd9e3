package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/provider"
	"repro/internal/workload"
)

// CheckpointOptions tunes RunCheckpointBlaster.
type CheckpointOptions struct {
	// Replicas is the replication degree R (default 2).
	Replicas int
	// Epochs is how many checkpoint epochs every rank writes
	// (default 6). Ranks*Epochs must stay <= 255 (stamp bytes).
	Epochs int
	// KeepLast is the retention window: the reaper reclaims every
	// epoch older than the newest KeepLast (default 2).
	KeepLast int
	// Readers is how many restore readers page retained versions back
	// in beside each epoch's writes (default 2, at most Ranks).
	Readers int
	// PipeDepth is each rank's write-pipe depth (default 2).
	PipeDepth int
	// Kill, when set, store-kills the provider Plan names as its epoch
	// begins; the self-heal loop must absorb it with zero failed writes
	// or reads. It needs R >= 2.
	Kill bool
	// Seed plans the kill and feeds the readers' picks (default 14).
	Seed int64
}

func (o CheckpointOptions) withDefaults() CheckpointOptions {
	if o.Replicas < 1 {
		o.Replicas = 2
	}
	if o.Epochs <= 0 {
		o.Epochs = 6
	}
	if o.KeepLast <= 0 {
		o.KeepLast = 2
	}
	if o.Readers <= 0 {
		o.Readers = 2
	}
	if o.PipeDepth <= 0 {
		o.PipeDepth = 2
	}
	if o.Seed == 0 {
		o.Seed = 14
	}
	return o
}

// CheckpointPlan is the kill a seed plans: Victim's store dies as epoch
// AfterEpoch begins, once AfterEpoch-1 epochs are published.
type CheckpointPlan struct {
	Victim     provider.ID
	AfterEpoch int
}

// Plan derives the kill from the seed, on its own stream, for a pool of
// the given size: any provider, in the run's middle third.
func (o CheckpointOptions) Plan(providers int) CheckpointPlan {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed ^ 0x636b70742d736368)) // "ckpt-sch"
	return CheckpointPlan{
		Victim:     provider.ID(rng.Intn(providers)),
		AfterEpoch: 1 + o.Epochs/3 + rng.Intn(o.Epochs/3+1),
	}
}

// restoresPerVersion is how many restores each reader makes of each
// version retained at an epoch's start.
const restoresPerVersion = 2

// checkpointMaxTicks bounds each convergence loop after the last epoch.
const checkpointMaxTicks = 600

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
	Restores      int   // restore reads verified: restoresPerVersion per reader and retained version in every epoch
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

// RunCheckpointBlaster runs the checkpoint scenario, experiment E14:
// Ranks processes checkpoint the strided N-1 pattern epoch after epoch
// through write pipes, while restore readers pin and page retained
// versions back in, the retention policy feeds the reaper a steady diet
// of expired epochs, and (with Kill) the seed-planned victim's store
// dies mid-run for the self-heal loop to absorb. The contract:
//
//   - Every checkpoint write and every restore succeeds.
//   - Every restore of a pinned version is whole (checkRestore): each
//     rank's region carries one (rank, epoch) stamp, or none yet.
//   - With Kill, the victim is detected from errors alone and full
//     replication returns; retention's backlog drains.
//   - The metrics registry never lies: counters are monotone and every
//     histogram's +Inf bucket equals its count in the snapshot each
//     reader takes after each restore, and at the end
//     bs_vm_publish_total equals ranks×epochs while the repair, reap
//     and read-cache counters show that each loop ran.
//
// Restores run inside each epoch beside its writes, and the epoch
// joins them before its one heal-and-reap tick on virtual time, so the
// restores, the versions retention drops and reclaims, and every write
// count are a function of the options and the seed. Two counts follow
// the order the ranks' writes arrive in: chunk gets, and the chunks the
// kill leaves to repair (the kill epoch's writes race the errors that
// mark the victim down). The result reports the per-stage latency
// histograms the registry recorded.
func RunCheckpointBlaster(env cluster.Env, spec workload.CheckpointSpec, opts CheckpointOptions) (CheckpointResult, error) {
	if err := spec.Validate(); err != nil {
		return CheckpointResult{}, err
	}
	opts = opts.withDefaults()
	if opts.Kill && opts.Replicas < 2 {
		return CheckpointResult{}, fmt.Errorf("bench: a checkpoint kill needs R >= 2, got %d: nothing survives to heal from", opts.Replicas)
	}
	if opts.Readers > spec.Ranks {
		return CheckpointResult{}, fmt.Errorf("bench: %d restore readers exceed %d ranks: each reader restores ranks of its own", opts.Readers, spec.Ranks)
	}
	if spec.Ranks*opts.Epochs > 255 {
		return CheckpointResult{}, fmt.Errorf("bench: %d rank-epochs exceed the 255 stamp-byte limit", spec.Ranks*opts.Epochs)
	}
	env.Replicas = opts.Replicas
	env.SelfHeal = true
	env.FaultInjection = opts.Kill
	env.GC = true
	env.Reaper.RetainLast = opts.KeepLast
	if env.Reaper.QueueDepth == 0 {
		env.Reaper.QueueDepth = 4096
	}
	if env.Healer.QueueDepth == 0 {
		env.Healer.QueueDepth = 4096
	}
	env.ReadCache = true
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return CheckpointResult{}, err
	}
	be, err := svc.Backend(1, spec.FileSpan())
	if err != nil {
		return CheckpointResult{}, err
	}
	b := be.Blob()
	clock := NewClock(svc)
	plan := opts.Plan(env.Providers)
	res := CheckpointResult{Ranks: spec.Ranks, Epochs: opts.Epochs, Replicas: opts.Replicas}

	// restore pins one retained version, pages one rank's region back
	// in, verifies it, and holds a fresh registry snapshot to the
	// contract against the reader's previous one. Reader i restores only
	// ranks i, i+Readers, i+2·Readers…, so no two readers restore one
	// rank's region of one version.
	rngs := make([]*rand.Rand, opts.Readers)
	prevs := make([]map[string]float64, opts.Readers)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(opts.Seed + int64(i)))
	}
	restore := func(i int, v uint64) error {
		rank := i + opts.Readers*rngs[i].Intn((spec.Ranks-i+opts.Readers-1)/opts.Readers)
		if err := b.Pin(v); err != nil {
			return fmt.Errorf("bench: pin of retained v%d: %w", v, err)
		}
		got, err := be.ReadListAt(core.Version(v), spec.ExtentsFor(rank))
		b.Unpin(v)
		if err == nil {
			err = checkRestore(spec, opts.Epochs, rank, got)
		}
		if err != nil {
			return fmt.Errorf("bench: restore of v%d rank %d: %w", v, rank, err)
		}
		snap := svc.Metrics.Snapshot()
		if err := monotoneSnapshot(prevs[i], snap); err != nil {
			return fmt.Errorf("bench: registry snapshot after a restore: %w", err)
		}
		prevs[i] = snap
		return nil
	}

	// The blaster: every epoch, all ranks submit their strided
	// checkpoint through per-rank pipes and flush, while each reader
	// restores every version retained at the epoch's start,
	// restoresPerVersion times. The retained set is a function of the
	// epoch, but what an intermediate version holds follows the order
	// the ranks published in. Retention runs only in the epoch's closing
	// tick, so it cannot drop a version before the epoch joins its
	// readers.
	pipes := make([]*core.WritePipe, spec.Ranks)
	for r := range pipes {
		pipes[r] = be.NewPipe(opts.PipeDepth)
	}
	for epoch := 1; epoch <= opts.Epochs; epoch++ {
		kill := opts.Kill && epoch == plan.AfterEpoch
		if kill {
			// Store-level kill: the epoch's writes and restores run
			// against a dead store nobody has told the system about.
			KillStores(svc, plan.Victim)
		}
		vs, err := b.Versions()
		if err != nil {
			return res, err
		}
		retained := slices.DeleteFunc(vs, func(v uint64) bool { return v == 0 }) // v0 is the empty initial snapshot
		err = eachClient(spec.Ranks+opts.Readers, func(c int) error {
			if c >= spec.Ranks {
				for _, v := range retained {
					for n := 0; n < restoresPerVersion; n++ {
						if err := restore(c-spec.Ranks, v); err != nil {
							return err
						}
					}
				}
				return nil
			}
			exts := spec.ExtentsFor(c)
			buf := make([]byte, exts.TotalLength())
			s := stamp(spec.Ranks, c, epoch)
			for i := range buf {
				buf[i] = s
			}
			vec, err := extent.NewVec(exts, buf)
			if err == nil {
				if err = pipes[c].Submit(vec); err == nil {
					_, err = pipes[c].Flush()
				}
			}
			if err != nil {
				return fmt.Errorf("bench: epoch %d rank %d write failed: %w", epoch, c, err)
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		if kill {
			// One whole scrub pass, after the epoch: the victim is
			// detected by then and what it held is queued for repair.
			svc.Healer.Pass()
		}
		res.Restores += opts.Readers * len(retained) * restoresPerVersion
		res.WrittenBytes += spec.BytesPerRank() * int64(spec.Ranks)
		clock.Tick()
	}
	if res.Restores == 0 {
		return res, errors.New("bench: no restore ran: restores start in the second epoch")
	}

	// Converge on the same clock: drain the retention backlog first —
	// dropped versions are no longer published, so the healer will not
	// scrub their chunks, and until the reaper deletes them they sit in
	// placement looking degraded — then heal to full replication.
	ticks := TickUntil(checkpointMaxTicks, clock.Tick, Drained(be, &err))
	if err != nil {
		return res, err
	}
	if ticks == NotConverged {
		return res, fmt.Errorf("bench: pending versions not reclaimed in %d ticks: %+v", checkpointMaxTicks, svc.Reaper.Stats())
	}
	if opts.Kill {
		if TickUntil(checkpointMaxTicks, clock.Tick, Healed(svc)) == NotConverged {
			return res, fmt.Errorf("bench: %d chunks still under-replicated after %d ticks (victim %d)",
				svc.Router.UnderReplicated(), checkpointMaxTicks, plan.Victim)
		}
		if Detected(svc, plan.Victim) == 0 {
			return res, fmt.Errorf("bench: victim %d never detected (state %s)", plan.Victim, svc.Health.State(plan.Victim))
		}
	}
	res.Repaired = svc.Healer.Stats().Repaired
	res.Reclaimed = svc.Reaper.Stats().Reclaimed

	// The registry at quiescence: monotone after every reader's last
	// snapshot, the publish count is the versions the run published,
	// and each loop left its tracks.
	res.Metrics = svc.Metrics.Snapshot()
	for _, prev := range prevs {
		if err := monotoneSnapshot(prev, res.Metrics); err != nil {
			return res, fmt.Errorf("bench: final registry snapshot: %w", err)
		}
	}
	if got, want := res.Metrics["bs_vm_publish_total"], float64(spec.Ranks*opts.Epochs); got != want {
		return res, fmt.Errorf("bench: bs_vm_publish_total = %g, want %g", got, want)
	}
	if opts.Kill && res.Metrics[`bs_repair_total{outcome="repaired"}`] == 0 {
		return res, errors.New(`bench: the kill left no bs_repair_total{outcome="repaired"} tracks`)
	}
	if res.Metrics["bs_reap_deleted_total"] == 0 {
		return res, errors.New("bench: retention left no bs_reap_deleted_total tracks")
	}
	if res.Metrics["bs_cache_hits_total"]+res.Metrics["bs_cache_misses_total"] == 0 {
		return res, errors.New("bench: restores never touched the read cache")
	}

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
	return res, nil
}

// stamp encodes (rank, epoch) in one nonzero payload byte, epoch
// 1-based; unstamp inverts it.
func stamp(ranks, rank, epoch int) byte { return byte(1 + (epoch-1)*ranks + rank) }

func unstamp(ranks int, b byte) (rank, epoch int) { return int(b-1) % ranks, int(b-1)/ranks + 1 }

// checkRestore holds one restore of rank's region to the atomic
// checkpoint contract: every segment is one stamp byte, the rank's
// own, and all segments carry the same epoch in [1, epochs] — or the
// rank had not checkpointed yet and none of them is written. A region
// that mixes epochs is a torn atomic write.
func checkRestore(spec workload.CheckpointSpec, epochs, rank int, got []byte) error {
	epoch := 0 // the region's epoch so far; -1 once a segment was unwritten
	for s := 0; s < spec.Segments; s++ {
		segment := got[int64(s)*spec.SegmentSize : int64(s+1)*spec.SegmentSize]
		first := segment[0]
		for _, x := range segment {
			if x != first {
				return fmt.Errorf("segment %d torn: mixed bytes", s)
			}
		}
		if first == 0 {
			if epoch > 0 {
				return fmt.Errorf("segment %d unwritten after written segments", s)
			}
			epoch = -1
			continue
		}
		r, e := unstamp(spec.Ranks, first)
		switch {
		case epoch == -1:
			return fmt.Errorf("segment %d written after unwritten segments", s)
		case r != rank:
			return fmt.Errorf("segment %d stamped by rank %d", s, r)
		case e > epochs:
			return fmt.Errorf("segment %d epoch %d out of range", s, e)
		case epoch > 0 && e != epoch:
			return fmt.Errorf("mixes epochs %d and %d — torn checkpoint", epoch, e)
		}
		epoch = e
	}
	return nil
}

// monotoneSnapshot checks one registry snapshot against an earlier one
// (nil for none): counters and histogram counts and buckets never
// decrease, and every histogram's +Inf bucket equals its count WITHIN
// the snapshot (the per-histogram lock makes that an invariant any
// observer must see).
func monotoneSnapshot(prev, snap map[string]float64) error {
	for name, v := range snap {
		if !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_count") &&
			!strings.Contains(name, "_bucket{") {
			continue // gauges may move both ways
		}
		if p, ok := prev[name]; ok && v < p {
			return fmt.Errorf("counter %s went backward: %g -> %g", name, p, v)
		}
	}
	for name, count := range snap {
		base, ok := strings.CutSuffix(name, "_count")
		if !ok {
			continue
		}
		if inf, ok := snap[base+`_bucket{le="+Inf"}`]; ok && inf != count {
			return fmt.Errorf("histogram %s torn mid-churn: +Inf bucket %g != count %g", base, inf, count)
		}
	}
	return nil
}
