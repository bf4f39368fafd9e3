package torture

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/provider"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

// CheckpointConfig parameterizes one checkpoint-blaster torture run:
// Ranks writers checkpoint the strided N-1 pattern epoch after epoch
// through write pipes while restore readers pin and re-read old
// epochs, the retention policy feeds the reaper continuously, a
// seed-scheduled provider dies at the store level mid-run, and a
// watcher asserts the metrics registry stays monotone and internally
// consistent under all of it.
type CheckpointConfig struct {
	// Seed drives the kill schedule and the readers' version picks.
	Seed int64
	// Ranks is the number of checkpoint writers (default 4).
	Ranks int
	// Epochs is how many checkpoints every rank writes (default 6).
	// Ranks*Epochs must stay <= 255 (stamp bytes).
	Epochs int
	// Segments and SegmentSize shape each rank's strided list
	// (defaults 4 and 4 KiB).
	Segments    int
	SegmentSize int64
	// Providers and Replicas shape the pool (defaults 8 and 2;
	// Replicas must be >= 2 — the schedule kills a provider).
	Providers int
	Replicas  int
	// KeepLast is the retention window (default 2).
	KeepLast int
	// Readers is the number of concurrent restore readers (default 2).
	Readers int
	// MaxTicks bounds the post-workload convergence loop (default 600).
	MaxTicks int
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.Epochs <= 0 {
		c.Epochs = 6
	}
	if c.Segments <= 0 {
		c.Segments = 4
	}
	if c.SegmentSize <= 0 {
		c.SegmentSize = 4 << 10
	}
	if c.Providers <= 0 {
		c.Providers = 8
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.KeepLast <= 0 {
		c.KeepLast = 2
	}
	if c.Readers <= 0 {
		c.Readers = 2
	}
	if c.MaxTicks <= 0 {
		c.MaxTicks = 600
	}
	return c
}

// Validate checks the configuration.
func (c CheckpointConfig) Validate() error {
	c = c.withDefaults()
	if c.Replicas < 2 {
		return errors.New("torture: checkpoint schedule needs R >= 2 (it kills a provider)")
	}
	if c.Ranks*c.Epochs > 255 {
		return fmt.Errorf("torture: %d rank-epochs exceed the 255 stamp-byte limit", c.Ranks*c.Epochs)
	}
	return nil
}

// CheckpointPlan is the seed-derived schedule: Victim's store dies
// once AfterEpoch epochs have been published.
type CheckpointPlan struct {
	Victim     provider.ID
	AfterEpoch int
}

// Plan derives the schedule from the seed, on its own stream.
func (c CheckpointConfig) Plan() CheckpointPlan {
	c = c.withDefaults()
	rng := planRNG(c.Seed, 0x636b70742d736368) // "ckpt-sch"
	return CheckpointPlan{
		Victim:     provider.ID(rng.Intn(c.Providers)),
		AfterEpoch: 1 + c.Epochs/3 + rng.Intn(c.Epochs/3+1),
	}
}

// stamp encodes (rank, epoch) in one nonzero payload byte; epoch is
// 1-based. stampRank/stampEpoch invert it.
func (c CheckpointConfig) stamp(rank, epoch int) byte {
	return byte(1 + (epoch-1)*c.Ranks + rank)
}

func (c CheckpointConfig) stampRank(b byte) int  { return int(b-1) % c.Ranks }
func (c CheckpointConfig) stampEpoch(b byte) int { return int(b-1)/c.Ranks + 1 }

// CheckpointReport summarizes one checkpoint-blaster torture run.
type CheckpointReport struct {
	Plan         CheckpointPlan
	FailedWrites int // must be 0
	Restores     int // restore reads completed (each fully verified)
	HealTicks    int // ticks to full re-replication after the workload
	Detected     bool
	MetricChecks int     // mid-churn registry snapshots verified
	PublishTotal float64 // bs_vm_publish_total at the end
	Repaired     int64   // bs_repair_total{outcome="repaired"}
	ReapDeleted  int64   // bs_reap_deleted_total
	Stats        string  // reaper stats (diagnostics)
}

// checkpointEnv pins the deployment: self-heal with a small queue (see
// selfHealEnv), continuous retention, fault injection for the
// store-level kill, and the read cache on so restores exercise it.
func checkpointEnv(cfg CheckpointConfig) cluster.Env {
	env := selfHealEnv(cfg.Providers, cfg.Replicas)
	env.GC = true
	env.RetainLast = cfg.KeepLast
	env.GCRate = 8
	env.GCQueue = 64
	env.ReadCache = true
	return env
}

// monotoneSnapshot checks one registry snapshot against the previous
// one: counters and histogram counts/buckets never decrease, and every
// histogram's +Inf bucket equals its count WITHIN the same snapshot
// (the per-histogram lock makes that an invariant any observer must
// see). Returns the error and the new baseline.
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
		inf, ok := snap[base+`_bucket{le="+Inf"}`]
		if !ok {
			continue
		}
		if inf != count {
			return fmt.Errorf("histogram %s torn mid-churn: +Inf bucket %g != count %g", base, inf, count)
		}
	}
	return nil
}

// RunCheckpoint executes the checkpoint-blaster schedule. The
// contract:
//
//   - Every checkpoint write commits through the store-level kill and
//     the continuous retain/reap traffic — zero failures at R >= 2.
//   - Every restore read of a pinned version is whole: each rank's
//     region decodes to that rank and to exactly one epoch across all
//     its segments (a mixed-epoch region is a torn atomic write).
//   - The victim is detected from errors alone and full replication
//     returns within MaxTicks.
//   - The metrics registry never lies: counters are monotone across
//     mid-churn snapshots, every histogram's +Inf bucket equals its
//     count in every snapshot, and at quiescence bs_vm_publish_total
//     equals the versions actually published while the repair and
//     reap counters prove both background loops really ran.
func RunCheckpoint(cfg CheckpointConfig) (CheckpointReport, error) {
	if err := cfg.Validate(); err != nil {
		return CheckpointReport{}, err
	}
	cfg = cfg.withDefaults()
	spec := workload.CheckpointSpec{Ranks: cfg.Ranks, Segments: cfg.Segments, SegmentSize: cfg.SegmentSize}
	rg, err := boot(checkpointEnv(cfg), spec.FileSpan())
	if err != nil {
		return CheckpointReport{}, err
	}
	plan := cfg.Plan()
	report := CheckpointReport{Plan: plan}
	svc, be := rg.svc, rg.be
	b := be.Blob()

	// Heal and reap run continuously beside the blaster.
	stopTicker := rg.tickInBackground()
	defer stopTicker()

	// The metrics watcher: snapshot the registry mid-churn and hold it
	// to the monotonicity and self-consistency contract.
	watchErr := make(chan error, 1)
	stopWatch := make(chan struct{})
	var watchWG sync.WaitGroup
	var metricChecks atomic.Int64
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		prev := map[string]float64{}
		for {
			select {
			case <-stopWatch:
				return
			default:
			}
			snap := svc.Metrics.Snapshot()
			if err := monotoneSnapshot(prev, snap); err != nil {
				select {
				case watchErr <- err:
				default:
				}
				return
			}
			prev = snap
			metricChecks.Add(1)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Restore readers: pin a retained version, read one rank's strided
	// region, and verify the stamps — rank must match, and all of the
	// rank's segments must carry the SAME epoch (its writes are atomic)
	// in [1, Epochs].
	readErr := make(chan error, 1)
	readFailed := func(err error) {
		select {
		case readErr <- err:
		default: // a first failure is already recorded
		}
	}
	stopReaders := make(chan struct{})
	var readersWG sync.WaitGroup
	var restoreCount atomic.Int64
	for i := 0; i < cfg.Readers; i++ {
		readersWG.Add(1)
		go func(i int) {
			defer readersWG.Done()
			rng := planRNG(cfg.Seed, int64(0x72647273+i)) // "rdrs"+i
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				vs, err := b.Versions()
				if err != nil {
					readFailed(err)
					return
				}
				if len(vs) == 0 {
					continue
				}
				v := vs[rng.Intn(len(vs))]
				if v == 0 {
					continue
				}
				if err := b.Pin(v); err != nil {
					if errors.Is(err, vmanager.ErrVersionDropped) {
						continue // retention raced the pick
					}
					readFailed(err)
					return
				}
				rank := rng.Intn(cfg.Ranks)
				got, rerr := be.ReadListAt(core.Version(v), spec.ExtentsFor(rank))
				b.Unpin(v)
				if rerr != nil {
					readFailed(fmt.Errorf("restore of pinned v%d rank %d failed: %w", v, rank, rerr))
					return
				}
				verr := func() error {
					epoch := 0
					for s := 0; s < cfg.Segments; s++ {
						segment := got[int64(s)*cfg.SegmentSize : int64(s+1)*cfg.SegmentSize]
						first := segment[0]
						for _, x := range segment {
							if x != first {
								return fmt.Errorf("v%d rank %d segment %d torn: mixed bytes", v, rank, s)
							}
						}
						if first == 0 {
							// This rank had not checkpointed yet at v;
							// then NO segment of it may be written.
							if epoch > 0 {
								return fmt.Errorf("v%d rank %d segment %d unwritten after written segments", v, rank, s)
							}
							epoch = -1
							continue
						}
						if r := cfg.stampRank(first); r != rank {
							return fmt.Errorf("v%d rank %d segment %d stamped by rank %d", v, rank, s, r)
						}
						e := cfg.stampEpoch(first)
						if e < 1 || e > cfg.Epochs {
							return fmt.Errorf("v%d rank %d segment %d epoch %d out of range", v, rank, s, e)
						}
						switch epoch {
						case 0:
							epoch = e
						case -1:
							return fmt.Errorf("v%d rank %d segment %d written after unwritten segments", v, rank, s)
						default:
							if e != epoch {
								return fmt.Errorf("v%d rank %d mixes epochs %d and %d — torn checkpoint", v, rank, epoch, e)
							}
						}
					}
					return nil
				}()
				if verr != nil {
					readFailed(verr)
					return
				}
				restoreCount.Add(1)
			}
		}(i)
	}

	// The blaster: per-rank write pipes, one flush per epoch, the
	// victim store-killed after AfterEpoch epochs.
	pipes := make([]*core.WritePipe, cfg.Ranks)
	for r := range pipes {
		pipes[r] = be.NewPipe(2)
	}
	var failures []error
	var mu sync.Mutex
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		if epoch == plan.AfterEpoch {
			rg.killStores(plan.Victim)
		}
		var wg sync.WaitGroup
		for r := 0; r < cfg.Ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				exts := spec.ExtentsFor(r)
				buf := make([]byte, exts.TotalLength())
				for i := range buf {
					buf[i] = cfg.stamp(r, epoch)
				}
				vec, err := extent.NewVec(exts, buf)
				if err == nil {
					if err = pipes[r].Submit(vec); err == nil {
						_, err = pipes[r].Flush()
					}
				}
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Errorf("epoch %d rank %d: %w", epoch, r, err))
					mu.Unlock()
				}
			}(r)
		}
		wg.Wait()
	}
	awaitFirst(&restoreCount, readErr)
	close(stopReaders)
	readersWG.Wait()
	report.FailedWrites = len(failures)
	report.Restores = int(restoreCount.Load())
	if len(failures) > 0 {
		return report, failf(cfg.Seed, "checkpoint writes failed under kill+GC: %w", errors.Join(failures...))
	}
	select {
	case err := <-readErr:
		return report, failf(cfg.Seed, "restore reader: %w", err)
	default:
	}
	if report.Restores == 0 {
		return report, failf(cfg.Seed, "no restore completed — schedule lost its teeth")
	}
	stopTicker()

	// Converge: drain the retention backlog (dropped versions are not
	// published, so the healer will not touch their chunks), then heal
	// to full replication.
	drained, err := rg.tickUntilReclaimed(cfg.MaxTicks)
	if err != nil {
		return report, err
	}
	st := svc.Reaper.Stats()
	report.Stats = fmt.Sprintf("%+v", st)
	if !drained {
		return report, failf(cfg.Seed, "pending versions not reclaimed in %d ticks: %+v", cfg.MaxTicks, st)
	}
	report.HealTicks = rg.tickUntil(cfg.MaxTicks, rg.healed)
	if report.HealTicks == notConverged {
		return report, failf(cfg.Seed, "%d under-replicated chunks after %d ticks (victim %d)",
			svc.Router.UnderReplicated(), cfg.MaxTicks, plan.Victim)
	}
	report.Detected = svc.Health.State(plan.Victim) == provider.Down
	if !report.Detected {
		return report, failf(cfg.Seed, "victim %d never detected (state %s)",
			plan.Victim, svc.Health.State(plan.Victim))
	}

	// Stop the watcher and surface anything it caught.
	close(stopWatch)
	watchWG.Wait()
	report.MetricChecks = int(metricChecks.Load())
	select {
	case err := <-watchErr:
		return report, failf(cfg.Seed, "metrics watcher: %w", err)
	default:
	}
	if report.MetricChecks == 0 {
		return report, failf(cfg.Seed, "watcher never snapshotted — schedule lost its teeth")
	}

	// Final registry self-consistency: publish count matches the
	// versions the run actually published, the final snapshot is
	// internally consistent, and both background loops left tracks.
	final := svc.Metrics.Snapshot()
	if err := monotoneSnapshot(nil, final); err != nil {
		return report, failf(cfg.Seed, "final snapshot: %w", err)
	}
	report.PublishTotal = final["bs_vm_publish_total"]
	if want := float64(cfg.Ranks * cfg.Epochs); report.PublishTotal != want {
		return report, failf(cfg.Seed, "bs_vm_publish_total = %g, want %g", report.PublishTotal, want)
	}
	report.Repaired = int64(final[`bs_repair_total{outcome="repaired"}`])
	if report.Repaired == 0 {
		return report, failf(cfg.Seed, "kill left no bs_repair_total{outcome=\"repaired\"} tracks")
	}
	report.ReapDeleted = int64(final["bs_reap_deleted_total"])
	if report.ReapDeleted == 0 {
		return report, failf(cfg.Seed, "retention left no bs_reap_deleted_total tracks")
	}
	if final["bs_cache_hits_total"]+final["bs_cache_misses_total"] == 0 {
		return report, failf(cfg.Seed, "restores never touched the read cache")
	}
	return report, nil
}
