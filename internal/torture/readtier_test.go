package torture

import (
	"fmt"
	"testing"
)

// readTierConfig is the standard read-tier schedule shape: the
// correlated-loss workload over 8 providers in 4 domains with
// zone-local selection and the shared read cache on, plus 4 skewed
// readers per phase.
func readTierConfig(seed int64, replicas int) ReadTierConfig {
	return ReadTierConfig{
		DomainConfig: domainConfig(seed, replicas),
		Readers:      4,
	}
}

// TestReadTierSchedule is the read-tier torture suite: hot/cold
// readers race the writers and a whole-domain store kill with the
// cache and zone-local selection enabled, then re-read the unhealed
// degraded cluster on a cache primed with pre-kill placements, then
// again after autonomous healing moved every placement out of the dead
// domain. Zero failed reads anywhere, serializability verified through
// the cache, hits and invalidations both demonstrably non-zero.
func TestReadTierSchedule(t *testing.T) {
	for _, r := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			for _, seed := range seeds(t) {
				rep, err := RunReadTier(readTierConfig(seed, r))
				if err != nil {
					t.Fatalf("replay with REPRO_TORTURE_SEED=%d: %v", seed, err)
				}
				if rep.FailedCalls != 0 {
					t.Fatalf("seed %d: %d writes failed at R=%d", seed, rep.FailedCalls, r)
				}
				if rep.Scrubbed == 0 {
					t.Fatalf("seed %d: nothing scrubbed after heal: %+v", seed, rep)
				}
				t.Logf("seed %d R=%d: %d reads (zero failed), %d cache hits, %d invalidations, domain %d healed in %d ticks",
					seed, r, rep.Reads, rep.CacheHits, rep.Invalidated, rep.Plan.VictimDomain, rep.Ticks)
			}
		})
	}
}

// TestReadTierRejectsBadShapes: the schedule refuses shapes whose
// guarantees it cannot check.
func TestReadTierRejectsBadShapes(t *testing.T) {
	if _, err := RunReadTier(readTierConfig(1, 1)); err == nil {
		t.Fatal("RunReadTier accepted R=1")
	}
	cfg := readTierConfig(1, 2)
	cfg.Domains = 2
	if _, err := RunReadTier(cfg); err == nil {
		t.Fatal("RunReadTier accepted Domains <= Replicas")
	}
	rejectsBadPools(t, func(providers, replicas int) error {
		cfg := readTierConfig(1, replicas)
		cfg.Providers = providers
		_, err := RunReadTier(cfg)
		return err
	})
}
