// Package integration_test exercises the whole stack end to end:
// random concurrent workloads through every atomicity-providing
// configuration checked by the serializability verifier, MPI-I/O over
// the TCP service, snapshot isolation under write storms, diff-driven
// consumers, and failure injection on the write path.
package integration_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/segtree"
	"repro/internal/verify"
	"repro/internal/vmanager"
	"repro/internal/workload"
)

func fastEnv() cluster.Env {
	e := cluster.Default()
	e.Providers = 4
	e.MetaShards = 4
	e.ChunkSize = 2048
	return e
}

// TestPropRandomOverlapSerializableEverySystem is the central
// correctness property of the whole reproduction: for random
// overlapped non-contiguous workloads, every system claiming MPI
// atomicity produces serializable outcomes.
func TestPropRandomOverlapSerializableEverySystem(t *testing.T) {
	systems := bench.AllAtomicSystems()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		spec := workload.OverlapSpec{
			Clients:         r.Intn(6) + 2,
			Regions:         r.Intn(12) + 1,
			RegionSize:      int64(r.Intn(2000) + 16),
			OverlapFraction: []float64{0, 0.5, 1}[r.Intn(3)],
		}
		kind := systems[r.Intn(len(systems))]
		res, err := bench.RunOverlap(kind, fastEnv(), spec, bench.OverlapOptions{
			Iterations: r.Intn(2) + 1,
			Verify:     true,
		})
		if err != nil {
			t.Logf("seed %d %v: %v", seed, kind, err)
			return false
		}
		if !res.Verified {
			t.Logf("seed %d %v: %v", seed, kind, res.VerifyErr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMPIIOTileOverRPC runs the tile workload through the MPI-I/O
// layer against the versioning service running over real TCP.
func TestMPIIOTileOverRPC(t *testing.T) {
	mgr, _, err := provider.NewURLPoolInDomains("mem://", 4, 0, iosim.CostModel{}, false)
	if err != nil {
		t.Fatal(err)
	}
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cli, err := remote.DialFramed(remote.Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	spec := workload.TileSpec{
		TilesX: 2, TilesY: 2,
		TileX: 16, TileY: 16,
		ElementSize: 4,
		OverlapX:    4, OverlapY: 4,
	}
	w, h := spec.ArrayDims()
	be, err := core.NewVersioning(cli.Services(), 1, segtree.Geometry{
		Capacity: cluster.CapacityFor(int64(w)*int64(h)*spec.ElementSize, 1024),
		Page:     1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	drv := &mpiio.VersioningDriver{Backend: be}
	err = mpi.Run(spec.Ranks(), func(c *mpi.Comm) error {
		f := mpiio.Open(c, drv)
		f.SetAtomicity(true)
		if err := f.SetView(mpiio.View{Disp: 0, Etype: datatype.Byte, Filetype: spec.Subarray(c.Rank())}); err != nil {
			return err
		}
		buf := bytes.Repeat([]byte{byte(c.Rank() + 1)}, int(spec.BytesPerRank()))
		return f.WriteAt(0, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Verify serializability of the remote outcome.
	var calls []verify.Call
	for r := 0; r < spec.Ranks(); r++ {
		calls = append(calls, verify.Call{ID: r + 1, Extents: spec.ExtentsFor(r)})
	}
	if err := verify.CheckCalls(driverReader{drv}, calls); err != nil {
		t.Fatal(err)
	}
}

type driverReader struct{ d mpiio.Driver }

func (r driverReader) ReadList(q extent.List, atomic bool) ([]byte, error) {
	return r.d.ReadList(q, atomic)
}

// TestSnapshotIsolationUnderWriteStorm pins one version and re-reads
// it repeatedly while writers hammer the same ranges; every re-read
// must be bit-identical.
func TestSnapshotIsolationUnderWriteStorm(t *testing.T) {
	svc, err := cluster.NewVersioning(fastEnv())
	if err != nil {
		t.Fatal(err)
	}
	be, err := svc.Backend(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	l := extent.List{{Offset: 0, Length: 4096}, {Offset: 128 << 10, Length: 4096}}
	buf := bytes.Repeat([]byte{0xAA}, int(l.TotalLength()))
	vec, _ := extent.NewVec(l, buf)
	pinned, err := be.WriteList(vec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := be.ReadListAt(pinned, l)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				data := bytes.Repeat([]byte{byte(w*16 + i%16)}, int(l.TotalLength()))
				v, _ := extent.NewVec(l, data)
				if _, err := be.WriteList(v); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		got, err := be.ReadListAt(pinned, l)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("snapshot %d changed under concurrent writes (read %d)", pinned, i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDiffDrivenConsumer verifies the application-level versioning
// flow: a consumer uses Diff to fetch only what each timestep changed
// and reconstructs the full state incrementally.
func TestDiffDrivenConsumer(t *testing.T) {
	svc, err := cluster.NewVersioning(fastEnv())
	if err != nil {
		t.Fatal(err)
	}
	be, err := svc.Backend(1, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	const space = 64 << 10
	oracle := make([]byte, space)
	mirror := make([]byte, space)
	r := rand.New(rand.NewSource(11))
	prev := core.Version(0)
	for step := 1; step <= 10; step++ {
		// Producer writes a random non-contiguous update.
		var l extent.List
		for i := 0; i < r.Intn(4)+1; i++ {
			off := int64(r.Intn(space - 512))
			l = append(l, extent.Extent{Offset: off, Length: int64(r.Intn(512) + 1)})
		}
		l = l.Normalize()
		buf := make([]byte, l.TotalLength())
		r.Read(buf)
		vec, _ := extent.NewVec(l, buf)
		v, err := be.WriteList(vec)
		if err != nil {
			t.Fatal(err)
		}
		vec.ScatterInto(oracle, 0)

		// Consumer fetches only the diff and patches its mirror.
		d, err := be.Diff(prev, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) > 0 {
			data, err := be.ReadListAt(v, d)
			if err != nil {
				t.Fatal(err)
			}
			patch := extent.Vec{Extents: d, Buf: data}
			patch.ScatterInto(mirror, 0)
		}
		if !bytes.Equal(mirror, oracle) {
			t.Fatalf("step %d: diff-driven mirror diverged", step)
		}
		prev = v
	}
}

// TestFailedWriteDoesNotWedgeTheBlob injects chunk-store failures and
// checks that (a) the failed write surfaces its error, (b) later
// writers still publish, (c) the failed version reads like its
// predecessor, and (d) borrow references to the failed version
// resolve.
func TestFailedWriteDoesNotWedgeTheBlob(t *testing.T) {
	// Hand-assemble services so the fault store wraps every provider.
	inner := chunk.NewMemStore(nil)
	faulty := chunk.NewFaultStore(inner)
	mgr := provider.NewManager()
	mgr.Register(provider.New(0, faulty))
	svc := blob.Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	b, err := blob.Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy write 1.
	if _, err := b.Write(0, bytes.Repeat([]byte{1}, 2048), blob.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// Write 2 fails in the chunk store.
	faulty.FailNextPuts(1)
	_, err = b.Write(512, bytes.Repeat([]byte{2}, 1024), blob.WriteOptions{})
	if !errors.Is(err, chunk.ErrInjected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// Write 3 must succeed and publish (ticket 2 was retired).
	v3, err := b.Write(4096, bytes.Repeat([]byte{3}, 512), blob.WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v3 != 3 {
		t.Fatalf("third write got version %d, want 3", v3)
	}
	// The failed version reads like version 1.
	got, err := b.ReadAt(2, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 1 {
			t.Fatalf("tombstone snapshot byte %d = %d, want 1", i, x)
		}
	}
	// Write 4 overlaps the failed write's range: its borrow chain may
	// reference version 2's tombstone nodes; reads must still work.
	if _, err := b.Write(600, bytes.Repeat([]byte{4}, 100), blob.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	final, err := b.ReadAt(4, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range final {
		want := byte(1)
		if i+512 >= 600 && i+512 < 700 {
			want = 4
		}
		if x != want {
			t.Fatalf("post-failure byte %d = %d, want %d", i+512, x, want)
		}
	}
}

// TestConcurrentFailuresAndSuccesses mixes failing and succeeding
// writers; the blob must stay consistent and every successful write
// must be readable.
func TestConcurrentFailuresAndSuccesses(t *testing.T) {
	inner := chunk.NewMemStore(nil)
	faulty := chunk.NewFaultStore(inner)
	mgr := provider.NewManager()
	mgr.Register(provider.New(0, faulty))
	svc := blob.Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	b, err := blob.Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	faulty.FailNextPuts(8) // roughly a third of the puts will fail
	const writers = 12
	var failures, successes int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(w + 1)}, 700)
			_, err := b.Write(int64(w%3)*512, buf, blob.WriteOptions{})
			mu.Lock()
			if err != nil {
				failures++
			} else {
				successes++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if failures == 0 {
		t.Fatal("expected some injected failures")
	}
	if successes == 0 {
		t.Fatal("expected some successes")
	}
	// The blob must be fully readable at every published version.
	info, err := b.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != writers {
		t.Fatalf("published %d, want %d (all tickets retired)", info.Version, writers)
	}
	for v := uint64(1); v <= info.Version; v++ {
		if _, err := b.ReadAt(v, 0, 2048); err != nil {
			t.Fatalf("version %d unreadable: %v", v, err)
		}
	}
}

// TestVerifierCatchesPosixInterleaving witnesses the paper's motivating
// inconsistency on every run: the POSIX strategy writes each region of a
// call as a call of its own, so two overlapping two-region writes may
// land region by region as A r1, B r1, B r2, A r2. Region 1 then orders
// A before B and region 2 B before A; no serial order explains the file,
// and the verifier must say so.
func TestVerifierCatchesPosixInterleaving(t *testing.T) {
	regions := extent.List{{Offset: 0, Length: 512}, {Offset: 4096, Length: 512}}
	a, b := verify.Call{ID: 1, Extents: regions}, verify.Call{ID: 2, Extents: regions}
	sys, err := bench.Build(bench.PosixNoAtomic, fastEnv(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		call   verify.Call
		region int
	}{{a, 0}, {b, 0}, {b, 1}, {a, 1}} {
		vec, err := verify.MakeVec(verify.Call{ID: step.call.ID, Extents: regions[step.region : step.region+1]})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Driver.WriteList(vec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := verify.CheckCalls(sys.Driver, []verify.Call{a, b}); !errors.Is(err, verify.ErrNotSerializable) {
		t.Fatalf("interleaved posix writes verified as %v, want ErrNotSerializable", err)
	}
}
