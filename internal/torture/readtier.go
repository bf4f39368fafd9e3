package torture

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/extent"
	"repro/internal/verify"
	"repro/internal/workload"
)

// ReadTierConfig parameterizes one read-tier torture run: the
// correlated-loss schedule (overlap-heavy writes, whole-domain
// store-level kill, autonomous healing) with the full hot-path read
// tier switched ON — zone-local replica selection from zone0 and the
// shared bounded read-through cache — while skewed hot/cold readers
// hammer the file before, during and after the kill. The schedule
// exists to prove the tier is read-only in its effects: placements rot
// under the kill and the repairs, the cache holds data and hints from
// before both, and not one read may fail for it.
type ReadTierConfig struct {
	DomainConfig
	// Readers is the number of concurrent reader goroutines (default 4).
	Readers int
	// ReadsPerReader is the picks each reader replays per read phase
	// (default 200).
	ReadsPerReader int
}

// ReadTierReport summarizes one read-tier run.
type ReadTierReport struct {
	Plan        DomainPlan
	FailedCalls int   // writes that failed (must be 0)
	Reads       int64 // reads issued across both phases (all must succeed)
	CacheHits   int64 // data reads served from memory
	Invalidated int64 // cache entries dropped by placement changes
	Detected    int   // victims the monitor flagged down
	Ticks       int   // healer ticks to full re-replication and spread
	Scrubbed    int   // versions read back in full after the heal
}

// RunReadTier executes the read-tier schedule. The contract it checks,
// on top of RunDomain's write-side guarantees:
//
//   - Zero failed reads, ever: while readers race the writers and the
//     whole-domain kill, and again in a full post-kill pass when the
//     cache is primed with pre-kill data and hints and every placement
//     referencing the dead domain is stale. A stale cached hint may
//     cost a failover, never a failure.
//   - The cache actually serves the hot set (hits > 0) and placement
//     changes actually flow through it (invalidations > 0 once the
//     healer re-replicates out of the dead domain).
//   - The outcome stays serializable read THROUGH the cache, healing
//     converges, every victim is detected, and every snapshot scrubs
//     clean — durability untouched by the read tier.
func RunReadTier(cfg ReadTierConfig) (ReadTierReport, error) {
	if cfg.Replicas < 2 {
		return ReadTierReport{}, errors.New("torture: RunReadTier needs R >= 2")
	}
	cfg.DomainConfig = cfg.DomainConfig.withDefaults()
	if cfg.Domains <= cfg.Replicas {
		return ReadTierReport{}, fmt.Errorf("torture: RunReadTier needs Domains > Replicas (got %d <= %d)",
			cfg.Domains, cfg.Replicas)
	}
	if cfg.Readers <= 0 {
		cfg.Readers = 4
	}
	if cfg.ReadsPerReader <= 0 {
		cfg.ReadsPerReader = 200
	}
	perWriter, err := cfg.Calls()
	if err != nil {
		return ReadTierReport{}, err
	}
	env := domainEnv(cfg.DomainConfig)
	env.ReadCache = true
	env.LocalDomain = "zone0" // the victim domain may be zone0 itself: locality must degrade, not fail
	rg, err := boot(env, cfg.Span())
	if err != nil {
		return ReadTierReport{}, err
	}
	plan := cfg.DomainConfig.Plan()
	report := ReadTierReport{Plan: plan}
	svc, be, d := rg.svc, rg.be, rg.d

	// Readers replay a seeded hot/cold pick sequence as whole-chunk
	// reads clipped to the window — the skew that makes the cache
	// earn its hits.
	chunks := int(cfg.Window / env.ChunkSize)
	if chunks < 1 {
		chunks = 1
	}
	pattern := workload.HotColdSpec{Chunks: chunks, HotFraction: 0.25, HotProb: 0.9}
	var reads atomic.Int64
	readPhase := func(phase int) error {
		errs := make([]error, cfg.Readers)
		var wg sync.WaitGroup
		for rd := 0; rd < cfg.Readers; rd++ {
			wg.Add(1)
			go func(rd int) {
				defer wg.Done()
				pick := pattern.Picker(cfg.Seed ^ int64(phase*1000+rd))
				for i := 0; i < cfg.ReadsPerReader; i++ {
					off := int64(pick()) * env.ChunkSize
					length := env.ChunkSize
					if off+length > cfg.Window {
						length = cfg.Window - off
					}
					_, err := d.ReadList(extent.List{{Offset: off, Length: length}}, true)
					reads.Add(1)
					if err != nil {
						errs[rd] = fmt.Errorf("reader %d read %d: %w", rd, i, err)
						return
					}
				}
			}(rd)
		}
		wg.Wait()
		return errors.Join(errs...)
	}

	// Phase 1: writers, the whole-domain kill, and readers all racing.
	var readErr error
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		readErr = readPhase(1)
	}()
	okCalls, failures := race(d, perWriter, plan.AfterCalls, func() { rg.killStores(plan.Victims...) })
	readers.Wait()

	report.FailedCalls = len(failures)
	if len(failures) > 0 {
		return report, failf(cfg.Seed, "writes failed under the read tier: %w", errors.Join(failures...))
	}
	if readErr != nil {
		return report, failf(cfg.Seed, "reads failed racing the domain kill: %w", readErr)
	}

	// Phase 2: the domain is dead, nothing is healed yet, and the cache
	// is primed with pre-kill data and hints. Every read must still
	// succeed — stale cache state may cost failovers, never failures.
	if err := readPhase(2); err != nil {
		return report, failf(cfg.Seed, "reads failed on the unhealed degraded cluster: %w", err)
	}

	// Serializability read THROUGH the cache: the verifier's reads take
	// the same cached path the torture readers warmed up.
	if err := verify.CheckCalls(reader{d}, okCalls); err != nil {
		return report, failf(cfg.Seed, "%w", err)
	}

	// Autonomous healing converges with the cache bolted on; every
	// re-replication is a placement change the cache must absorb.
	report.Ticks = rg.tickUntil(cfg.MaxTicks, rg.healedAndSpread)
	if report.Ticks == notConverged {
		return report, failf(cfg.Seed, "%d under-replicated / %d spread-violated chunks remain after %d ticks with the cache on: %+v",
			svc.Router.UnderReplicated(), len(svc.Router.SpreadAudit()), cfg.MaxTicks, svc.Healer.Stats())
	}
	report.Detected = rg.detected(plan.Victims...)
	if report.Detected != len(plan.Victims) {
		return report, failf(cfg.Seed, "only %d of %d domain victims detected down",
			report.Detected, len(plan.Victims))
	}

	// Phase 3: post-heal reads — placements moved again under the
	// healer; the cache must have followed.
	if err := readPhase(3); err != nil {
		return report, failf(cfg.Seed, "reads failed after healing: %w", err)
	}

	n, err := be.Scrub()
	report.Scrubbed = n
	if err != nil {
		return report, failf(cfg.Seed, "snapshot unreadable with the read tier on: %w", err)
	}

	report.Reads = reads.Load()
	st := svc.Cache.Stats()
	report.CacheHits = st.Hits
	report.Invalidated = st.Invalidations
	if report.CacheHits == 0 {
		return report, failf(cfg.Seed, "the hot/cold readers never hit the cache: %+v", st)
	}
	if report.Invalidated == 0 {
		return report, failf(cfg.Seed, "healing re-replicated out of a dead domain yet invalidated nothing — placement changes are bypassing the cache: %+v", st)
	}
	return report, nil
}
