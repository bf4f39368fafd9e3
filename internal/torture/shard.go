package torture

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/verify"
	"repro/internal/vmanager"
)

// ShardConfig parameterizes one shard-kill torture run: concurrent
// writers over many blobs on a sharded control plane, while a
// seed-scheduled version-manager shard is killed in the middle of a
// group-commit batch. The run checks the sharding contract end to end:
// surviving shards keep committing with zero failed writes, every
// failure on the doomed shard is ErrShardDown (definitely not
// committed), the interrupted batch is never torn — every ticket in it
// is observably aborted on restart — and no blob leaks across shards.
type ShardConfig struct {
	// Seed drives all randomness; equal seeds replay the whole run,
	// including which shard dies and when.
	Seed int64
	// Shards is the control-plane shard count (default 4, minimum 2 —
	// a kill with no survivors proves nothing).
	Shards int
	// Blobs is the number of blobs, each driven by its own writer
	// goroutine (default 12). Blob IDs are 1..Blobs.
	Blobs int
	// CallsPerBlob is the number of atomic writes per blob (default 8,
	// maximum 254 — call IDs are per-blob stamp bytes and the
	// post-restart probe needs CallsPerBlob+1).
	CallsPerBlob int
	// Window is the contested byte range per blob (default 256 KiB).
	Window int64
	// MaxExtents bounds the extents per call (default 3).
	MaxExtents int
	// MaxExtentLen bounds each extent's length (default 8 KiB).
	MaxExtentLen int64
	// Batch is each shard's group-commit configuration. MaxBatch must
	// be >= 2 (the crashpoint lives on the batched publish path);
	// the zero value defaults to {MaxBatch: 8, MaxDelay: 200µs}.
	Batch vmanager.BatchConfig
}

func (c *ShardConfig) applyDefaults() {
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Blobs == 0 {
		c.Blobs = 12
	}
	if c.CallsPerBlob == 0 {
		c.CallsPerBlob = 8
	}
	if c.Window == 0 {
		c.Window = 256 << 10
	}
	if c.MaxExtents == 0 {
		c.MaxExtents = 3
	}
	if c.MaxExtentLen == 0 {
		c.MaxExtentLen = 8 << 10
	}
	if c.Batch == (vmanager.BatchConfig{}) {
		c.Batch = vmanager.BatchConfig{MaxBatch: 8, MaxDelay: 200 * time.Microsecond}
	}
}

// Validate checks the configuration (after defaults).
func (c ShardConfig) Validate() error {
	if c.Shards < 2 {
		return fmt.Errorf("torture: shard kill needs >= 2 shards, got %d", c.Shards)
	}
	if c.Blobs < 2 {
		return fmt.Errorf("torture: shard kill needs >= 2 blobs, got %d", c.Blobs)
	}
	if c.CallsPerBlob < 1 || c.CallsPerBlob > 254 {
		return fmt.Errorf("torture: calls per blob must be in [1, 254], got %d", c.CallsPerBlob)
	}
	if c.Batch.MaxBatch < 2 {
		return fmt.Errorf("torture: shard kill needs group commit (MaxBatch >= 2), got %d", c.Batch.MaxBatch)
	}
	return nil
}

// ShardPlan is the seed-derived kill schedule. Doomed is picked by
// first drawing a blob and taking its owning shard, so the doomed
// shard always carries live traffic. KillAfter counts publish
// applications at the doomed shard: the kill fires during the batch
// whose application crosses the threshold, mid-application, so the
// batch is genuinely in flight when the shard dies. The threshold
// lands in the middle half of the doomed shard's expected publishes so
// writes race the kill from both sides.
type ShardPlan struct {
	Doomed    int
	KillAfter int
}

// Plan derives the kill schedule from the seed and the shard mapping.
func (c ShardConfig) Plan() ShardPlan {
	c.applyDefaults()
	// A distinct stream from the per-blob call generators: same seed,
	// different constant, so schedule and calls replay independently.
	rng := planRNG(c.Seed, 0x73686172642d7631) // "shard-v1"
	doomedBlob := uint64(1 + rng.Intn(c.Blobs))
	doomed := vmanager.ShardIndex(doomedBlob, c.Shards)
	owned := 0
	for b := 1; b <= c.Blobs; b++ {
		if vmanager.ShardIndex(uint64(b), c.Shards) == doomed {
			owned++
		}
	}
	after := midWorkload(rng, c.CallsPerBlob*owned)
	if after < 1 {
		after = 1
	}
	return ShardPlan{Doomed: doomed, KillAfter: after}
}

// ShardReport summarizes one shard-kill run.
type ShardReport struct {
	Plan            ShardPlan
	DoomedBlobs     []uint64 // blobs owned by the killed shard
	OKCalls         int      // writes that committed (across all blobs)
	FailedCalls     int      // writes that failed (all ErrShardDown, all on doomed blobs)
	DoomedBatch     int      // size of the batch interrupted by the kill
	AppliedAtKill   int      // requests of that batch already applied (and rolled back)
	AbortsOnRestart int      // tickets recovery-aborted when the shard restarted
}

// blobCalls returns blob b's deterministic call list. Each blob gets
// its own generator stream so call sets are independent per blob but
// still derive from the run seed alone.
func (c ShardConfig) blobCalls(b uint64) ([]verify.Call, error) {
	gen := Config{
		Seed:           c.Seed ^ int64(b*0x9E3779B97F4A7C15),
		Writers:        1,
		CallsPerWriter: c.CallsPerBlob,
		Window:         c.Window,
		MaxExtents:     c.MaxExtents,
		MaxExtentLen:   c.MaxExtentLen,
	}
	perWriter, err := gen.Calls()
	if err != nil {
		return nil, err
	}
	return perWriter[0], nil
}

// RunShard executes the shard-kill schedule and checks the control
// plane's partitioning contract:
//
//   - Surviving shards keep committing: every write to a blob owned by
//     a live shard succeeds — a shard death is invisible outside its
//     partition.
//   - ErrShardDown means not committed: every failed write is on a
//     doomed-shard blob, fails with ErrShardDown, and its stamps never
//     appear in the final state (the serializability check would flag
//     them as foreign data).
//   - The interrupted batch is never torn: the kill fires mid-batch
//     (a control assertion proves requests were already applied), the
//     applied prefix is rolled back, and on restart every ticket of
//     that batch is recovery-aborted — observably, via the returned
//     refs — never half-published.
//   - No cross-shard leakage: each blob is registered on exactly its
//     owning shard, and recovery aborts name only doomed-shard blobs.
//   - Version conservation: per blob, the published counter equals
//     committed writes plus recovery aborts — no version vanishes or
//     is double-counted across the kill/restart cycle.
//   - The restarted shard serves writes again (a probe write per
//     doomed blob succeeds), and every blob's final state remains
//     serializable over its committed calls.
func RunShard(cfg ShardConfig) (ShardReport, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return ShardReport{}, err
	}
	plan := cfg.Plan()
	report := ShardReport{Plan: plan}

	owner := func(b uint64) int { return vmanager.ShardIndex(b, cfg.Shards) }
	var doomedBlobs, survivorBlobs []uint64
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		if owner(b) == plan.Doomed {
			doomedBlobs = append(doomedBlobs, b)
		} else {
			survivorBlobs = append(survivorBlobs, b)
		}
	}
	report.DoomedBlobs = doomedBlobs
	if len(doomedBlobs) == 0 || len(survivorBlobs) == 0 {
		return report, failf(cfg.Seed, "schedule lost its teeth: doomed shard %d owns %d of %d blobs (need both victims and survivors)",
			plan.Doomed, len(doomedBlobs), cfg.Blobs)
	}

	calls := make(map[uint64][]verify.Call, cfg.Blobs)
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		cs, err := cfg.blobCalls(b)
		if err != nil {
			return report, err
		}
		calls[b] = cs
	}

	env := cluster.Default()
	env.VMShards = cfg.Shards
	env.VMBatch = cfg.Batch
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return report, err
	}
	drivers := make(map[uint64]*mpiio.VersioningDriver, cfg.Blobs)
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		be, err := svc.Backend(b, cfg.Window)
		if err != nil {
			return report, err
		}
		drivers[b] = &mpiio.VersioningDriver{Backend: be}
	}

	// The crashpoint runs under the doomed shard's lock, once before
	// each request application and once after the last. cum counts
	// fully applied batches; the kill fires during the first batch
	// whose application crosses KillAfter — after at least one of its
	// requests applied, so the rollback path genuinely has work.
	var cpMu sync.Mutex
	var fired bool
	var cum, appliedAtKill int
	var doomedBatch []vmanager.PublishRequest
	svc.VM.Shard(plan.Doomed).SetCrashpoint(func(reqs []vmanager.PublishRequest, applied int) bool {
		cpMu.Lock()
		defer cpMu.Unlock()
		if fired {
			return false
		}
		if applied >= 1 && cum+applied >= plan.KillAfter {
			fired = true
			doomedBatch = append([]vmanager.PublishRequest(nil), reqs...)
			appliedAtKill = applied
			return true
		}
		if applied == len(reqs) {
			cum += applied
		}
		return false
	})

	var mu sync.Mutex
	okCalls := make(map[uint64][]verify.Call, cfg.Blobs)
	failures := make(map[uint64][]error)
	var wg sync.WaitGroup
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		wg.Add(1)
		go func(b uint64) {
			defer wg.Done()
			d := drivers[b]
			for _, call := range calls[b] {
				vec, err := verify.MakeVec(call)
				if err == nil {
					err = d.WriteList(vec, true)
				}
				mu.Lock()
				if err != nil {
					failures[b] = append(failures[b], fmt.Errorf("blob %d call %d: %w", b, call.ID, err))
				} else {
					okCalls[b] = append(okCalls[b], call)
				}
				mu.Unlock()
			}
		}(b)
	}
	wg.Wait()

	cpMu.Lock()
	report.DoomedBatch = len(doomedBatch)
	report.AppliedAtKill = appliedAtKill
	killFired, appliedTotal := fired, cum
	cpMu.Unlock()

	// Control assertions first: a schedule that never kills, or kills
	// between batches, tests nothing.
	if !killFired {
		return report, failf(cfg.Seed, "schedule lost its teeth: crashpoint never fired (kill-after=%d, doomed shard applied %d publishes)",
			plan.KillAfter, appliedTotal)
	}
	if report.AppliedAtKill < 1 {
		return report, failf(cfg.Seed, "schedule lost its teeth: kill fired with no applied requests in flight")
	}
	if !svc.VM.Shard(plan.Doomed).Down() {
		return report, failf(cfg.Seed, "crashpoint fired but shard %d is not down", plan.Doomed)
	}

	// Failure confinement: survivors commit everything; doomed blobs
	// fail only with ErrShardDown.
	for _, b := range survivorBlobs {
		if n := len(failures[b]); n > 0 {
			return report, failf(cfg.Seed, "blob %d on surviving shard %d had %d failed writes: %w",
				b, owner(b), n, errors.Join(failures[b]...))
		}
	}
	total := 0
	for _, b := range doomedBlobs {
		for _, err := range failures[b] {
			if !errors.Is(err, vmanager.ErrShardDown) {
				return report, failf(cfg.Seed, "doomed-shard write failed with a non-shard-down error: %w", err)
			}
		}
		total += len(failures[b])
	}
	report.FailedCalls = total
	if total < 1 {
		return report, failf(cfg.Seed, "schedule lost its teeth: shard died but no write observed it")
	}

	// Restart: the interrupted batch must surface as recovery aborts.
	aborted := svc.VM.RestartShard(plan.Doomed)
	report.AbortsOnRestart = len(aborted)
	if len(aborted) < 1 {
		return report, failf(cfg.Seed, "schedule lost its teeth: restart witnessed no aborts (batch of %d with %d applied was in flight)",
			report.DoomedBatch, report.AppliedAtKill)
	}
	abortedSet := make(map[vmanager.VersionRef]bool, len(aborted))
	abortsByBlob := make(map[uint64]int)
	for _, ref := range aborted {
		if owner(ref.Blob) != plan.Doomed {
			return report, failf(cfg.Seed, "restart of shard %d aborted blob %d owned by shard %d",
				plan.Doomed, ref.Blob, owner(ref.Blob))
		}
		abortedSet[ref] = true
		abortsByBlob[ref.Blob]++
	}
	for _, r := range doomedBatch {
		if !abortedSet[vmanager.VersionRef{Blob: r.Blob, Version: r.Version}] {
			return report, failf(cfg.Seed, "torn batch: blob %d version %d was in the killed batch but not aborted on restart",
				r.Blob, r.Version)
		}
	}

	// The restarted shard serves writes again.
	probe := extent.List{{Offset: 0, Length: min64(cfg.Window, 4096)}}
	for _, b := range doomedBlobs {
		call := verify.Call{ID: cfg.CallsPerBlob + 1, Extents: probe}
		vec, err := verify.MakeVec(call)
		if err == nil {
			err = drivers[b].WriteList(vec, true)
		}
		if err != nil {
			return report, failf(cfg.Seed, "probe write to blob %d failed after restart: %w", b, err)
		}
		okCalls[b] = append(okCalls[b], call)
	}

	// Per-blob MPI atomicity over exactly the calls that committed. A
	// failed call whose bytes leaked into the final state shows up here
	// as foreign data — this is the ErrShardDown-means-not-committed
	// check.
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		if err := verify.CheckCalls(reader{drivers[b]}, okCalls[b]); err != nil {
			return report, failf(cfg.Seed, "blob %d: %w", b, err)
		}
		report.OKCalls += len(okCalls[b])
	}

	// No cross-shard leakage: each blob is registered on exactly its
	// owning shard, and the per-shard blob sets partition the run's.
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		for i := 0; i < cfg.Shards; i++ {
			_, err := svc.VM.Shard(i).Geometry(b)
			switch {
			case i == owner(b) && err != nil:
				return report, failf(cfg.Seed, "blob %d missing from its owning shard %d: %w", b, i, err)
			case i != owner(b) && !errors.Is(err, vmanager.ErrUnknownBlob):
				return report, failf(cfg.Seed, "blob %d leaked onto shard %d (owner %d): err=%v", b, i, owner(b), err)
			}
		}
	}
	var union []uint64
	for i := 0; i < cfg.Shards; i++ {
		union = append(union, svc.VM.Shard(i).Blobs()...)
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	if len(union) != cfg.Blobs {
		return report, failf(cfg.Seed, "per-shard blob sets do not partition the run's %d blobs: %v",
			cfg.Blobs, union)
	}
	for i, b := range union {
		if b != uint64(i+1) {
			return report, failf(cfg.Seed, "per-shard blob sets do not partition the run's %d blobs: %v",
				cfg.Blobs, union)
		}
	}

	// Version conservation: every assigned ticket either committed or
	// was recovery-aborted; the published counter accounts for both.
	for b := uint64(1); b <= uint64(cfg.Blobs); b++ {
		info, err := svc.VM.LatestPublished(b)
		if err != nil {
			return report, err
		}
		want := uint64(len(okCalls[b]) + abortsByBlob[b])
		if info.Version != want {
			return report, failf(cfg.Seed, "blob %d published counter %d != %d committed + %d aborted",
				b, info.Version, len(okCalls[b]), abortsByBlob[b])
		}
	}
	return report, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
