package bench

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/workload"
)

// ReadTierMode selects which stage of the hot-path read tier a cell
// measures.
type ReadTierMode int

const (
	// ReadFlat is the baseline: replica choice blind to domains (the
	// plain rotation), no cache. Locality is still measured — reads are
	// attributed to the reader's domain — so the cell reports the
	// cross-domain fraction the other modes remove.
	ReadFlat ReadTierMode = iota
	// ReadZoneLocal prefers same-domain replicas, no cache.
	ReadZoneLocal
	// ReadZoneLocalCached prefers same-domain replicas and serves
	// repeats from the bounded read-through cache.
	ReadZoneLocalCached
)

// String names the mode for tables.
func (m ReadTierMode) String() string {
	switch m {
	case ReadFlat:
		return "flat"
	case ReadZoneLocal:
		return "zone-local"
	case ReadZoneLocalCached:
		return "zone-local+cache"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ReadTierOptions tunes RunReadTier.
type ReadTierOptions struct {
	// Replicas is the replication degree R (>= 2: locality needs a
	// choice of replicas to make).
	Replicas int
	// Domains is the failure-domain count (default 4). Readers sit in
	// zone0.
	Domains int
	// Mode selects the read-tier stage under test.
	Mode ReadTierMode
	// Readers is the number of concurrent reader goroutines (default 8).
	Readers int
	// ReadsPerReader is the chunk reads each reader issues (default 400).
	ReadsPerReader int
	// Pattern is the hot/cold skew; the zero value selects the 90/10
	// shape over 64 chunks.
	Pattern workload.HotColdSpec
	// CacheBytes bounds the cache (ReadZoneLocalCached; 0 = 64 MiB).
	CacheBytes int64
	// Seed derives every reader's pick sequence.
	Seed int64
}

// ReadTierResult is one measured read-tier cell.
type ReadTierResult struct {
	Mode     ReadTierMode
	Replicas int
	Readers  int
	Reads    int64 // chunk reads issued
	ReadMBps float64
	Locality provider.ReadLocalityStats
	// CrossFraction is the fraction of replica-fetched bytes that
	// crossed a domain boundary (cache hits fetch nothing and so count
	// in neither bucket — the cache shrinks the denominator too).
	CrossFraction float64
	CacheOn       bool
	Cache         provider.ReadCacheStats
}

// RunReadTier measures experiment E13: concurrent readers in one
// failure domain re-read a replicated file with a 90/10 hot/cold skew,
// under each stage of the hot-path read tier. Flat rotation spreads
// fetches over all domains (cross-domain fraction ~ (D-1)/D at R >= D
// replicas visible, (R-1)/R in general); zone-local selection collapses
// it toward the fraction of chunks with no local replica; the cache
// removes repeat fetches entirely and reports its hit rate. Durability
// is untouched — the tier only reorders and remembers reads.
func RunReadTier(env cluster.Env, opts ReadTierOptions) (ReadTierResult, error) {
	if opts.Replicas < 2 {
		return ReadTierResult{}, fmt.Errorf("bench: read tier needs R >= 2, got %d", opts.Replicas)
	}
	if opts.Domains <= 0 {
		opts.Domains = 4
	}
	if opts.Readers <= 0 {
		opts.Readers = 8
	}
	if opts.ReadsPerReader <= 0 {
		opts.ReadsPerReader = 400
	}
	if opts.Pattern == (workload.HotColdSpec{}) {
		opts.Pattern = workload.HotColdSpec{Chunks: 64, HotFraction: 0.1, HotProb: 0.9}
	}
	if err := opts.Pattern.Validate(); err != nil {
		return ReadTierResult{}, err
	}
	env.Replicas = opts.Replicas
	env.Domains = opts.Domains
	const readerDomain = "zone0"
	if opts.Mode != ReadFlat {
		env.LocalDomain = readerDomain
	}
	if opts.Mode == ReadZoneLocalCached {
		env.ReadCache = true
		env.Cache.MaxBytes = opts.CacheBytes
	}
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		return ReadTierResult{}, err
	}
	if opts.Mode == ReadFlat {
		// Measure-only locality: reads are attributed to the reader
		// domain but replica choice stays the blind rotation, so the
		// cell reports the cross-domain traffic the tier removes.
		svc.Router.SetReadLocality(readerDomain, false)
	}
	span := int64(opts.Pattern.Chunks) * env.ChunkSize
	be, err := svc.Backend(1, span)
	if err != nil {
		return ReadTierResult{}, err
	}
	d := &mpiio.VersioningDriver{Backend: be}
	res := ReadTierResult{Mode: opts.Mode, Replicas: opts.Replicas, Readers: opts.Readers}

	// Write phase: one pass over the whole keyspace, so every chunk
	// exists at R copies before the readers start. One chunk per call:
	// placement follows arrival order at the router, and the chunks of
	// one call race each other there, so a single wide write would give
	// every run (and every mode) a different set of zone-local chunks.
	buf := make([]byte, env.ChunkSize)
	for c := 0; c < opts.Pattern.Chunks; c++ {
		for i := range buf {
			buf[i] = byte(c + i)
		}
		vec, err := extent.NewVec(extent.List{{Offset: int64(c) * env.ChunkSize, Length: env.ChunkSize}}, buf)
		if err != nil {
			return res, err
		}
		if err := d.WriteList(vec, true); err != nil {
			return res, err
		}
	}

	// Read phase: every reader replays its seeded hot/cold pick
	// sequence as aligned whole-chunk reads.
	start := time.Now()
	err = eachClient(opts.Readers, func(r int) error {
		pick := opts.Pattern.Picker(opts.Seed + int64(r))
		for i := 0; i < opts.ReadsPerReader; i++ {
			off := int64(pick()) * env.ChunkSize
			q := extent.List{{Offset: off, Length: env.ChunkSize}}
			if _, err := d.ReadList(q, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return res, fmt.Errorf("bench: read tier (%s): %w", opts.Mode, err)
	}
	elapsed := time.Since(start)
	res.Reads = int64(opts.Readers) * int64(opts.ReadsPerReader)
	res.ReadMBps = mbps(res.Reads*env.ChunkSize, elapsed)
	res.Locality = svc.Router.ReadLocality()
	res.CrossFraction = res.Locality.CrossFraction()
	if c := svc.Router.ReadCache(); c != nil {
		res.CacheOn = true
		res.Cache = c.Stats()
	}
	return res, nil
}
