package torture

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/verify"
	"repro/internal/vmanager"
)

// faultyBackend hand-assembles a versioning deployment whose every
// data provider is wrapped in a fault injector, with the given
// group-commit configuration.
func faultyBackend(t *testing.T, cfg vmanager.BatchConfig, providers int, span int64) (*core.VersioningBackend, []*chunk.FaultStore) {
	t.Helper()
	vm := vmanager.New(iosim.CostModel{})
	vm.SetBatching(cfg)
	mgr := provider.NewManager()
	var faults []*chunk.FaultStore
	for i := 0; i < providers; i++ {
		f := chunk.NewFaultStore(chunk.NewMemStore(nil))
		faults = append(faults, f)
		mgr.Register(provider.NewInDomain(provider.ID(i), f, ""))
	}
	svc := blob.Services{
		VM:   vm,
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	page := int64(4 << 10)
	pages := (span + page - 1) / page
	cap := page
	for cap < pages*page {
		cap <<= 1
	}
	be, err := core.NewVersioning(svc, 1, segtree.Geometry{Capacity: cap, Page: page})
	if err != nil {
		t.Fatal(err)
	}
	return be, faults
}

// TestFaultMidBatchDoesNotCorruptPeers injects chunk-store failures
// into a group-committed concurrent write storm and asserts the suite's
// core guarantee: a failed writer surfaces its error and never corrupts
// the published snapshots of the writers batched alongside it — the
// final state stays serializable over exactly the successful calls.
func TestFaultMidBatchDoesNotCorruptPeers(t *testing.T) {
	for _, mb := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("maxbatch=%d", mb), func(t *testing.T) {
			cfg := tortureConfig(11)
			perWriter, err := cfg.Calls()
			if err != nil {
				t.Fatal(err)
			}
			be, faults := faultyBackend(t,
				vmanager.BatchConfig{MaxBatch: mb, MaxDelay: 200 * time.Microsecond},
				4, cfg.Span())
			d := &mpiio.VersioningDriver{Backend: be}

			// Arm a burst of put failures on every provider; under the
			// concurrent storm they land mid-batch, inside groups whose
			// other members succeed.
			for _, f := range faults {
				f.FailNextPuts(2)
			}

			var mu sync.Mutex
			okCalls := make([]verify.Call, 0, cfg.Writers*cfg.CallsPerWriter)
			var failed int
			var wg sync.WaitGroup
			for w := 0; w < cfg.Writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, call := range perWriter[w] {
						vec, err := verify.MakeVec(call)
						if err != nil {
							t.Error(err)
							return
						}
						err = d.WriteList(vec, true)
						mu.Lock()
						if err != nil {
							if !errors.Is(err, chunk.ErrInjected) {
								t.Errorf("call %d: unexpected error %v", call.ID, err)
							}
							failed++
						} else {
							okCalls = append(okCalls, call)
						}
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			if failed == 0 {
				t.Fatal("no injected failure fired; the test exercised nothing")
			}
			if len(okCalls) == 0 {
				t.Fatal("every call failed; cannot check peers")
			}

			// Serializability over the successful calls only: if a dead
			// writer's bytes leaked into the image, the checker reports
			// them as foreign data.
			if err := verify.CheckCalls(d, okCalls); err != nil {
				t.Fatalf("failed writer corrupted batch peers: %v", err)
			}

			// Publication never wedges: every assigned ticket resolved
			// (failed ones as tombstones), so latest == total calls.
			latest, err := be.Latest()
			if err != nil {
				t.Fatal(err)
			}
			if want := core.Version(cfg.Writers * cfg.CallsPerWriter); latest != want {
				t.Fatalf("latest published %d, want %d (a failed writer wedged publication)", latest, want)
			}
		})
	}
}

// TestFaultInPipelineSurfacesOnFlush: a mid-train chunk failure must
// surface on Flush while the rest of the train publishes.
func TestFaultInPipelineSurfacesOnFlush(t *testing.T) {
	be, faults := faultyBackend(t, vmanager.BatchConfig{MaxBatch: 8, MaxDelay: 100 * time.Microsecond}, 2, 1<<20)
	pipe := be.NewPipe(4)
	faults[0].FailNextPuts(1)
	var submitted int
	for i := 0; i < 12; i++ {
		buf := make([]byte, 4096)
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		vec, err := extent.NewVec(extent.List{{Offset: int64(i) * 4096, Length: 4096}}, buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := pipe.Submit(vec); err != nil {
			break // earlier failure surfaced early; fine
		}
		submitted++
	}
	if _, err := pipe.Flush(); !errors.Is(err, chunk.ErrInjected) {
		t.Fatalf("Flush error = %v, want injected fault", err)
	}
	// The train's survivors still published: publication is not wedged.
	latest, err := be.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if latest == 0 || latest > core.Version(submitted) {
		t.Fatalf("latest = %d after %d submissions", latest, submitted)
	}
}
