package blob

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// memPool builds n unmetered in-memory providers.
func memPool(n int) *provider.Manager {
	mgr, _, err := provider.NewURLPoolInDomains("mem://", n, 0, iosim.CostModel{}, false)
	if err != nil {
		panic(err) // a mem:// store always opens
	}
	return mgr
}

// faultPool is memPool with every store wrapped in a
// chunk.FaultStore, the handles returned by provider index.
func faultPool(n int) (*provider.Manager, []*chunk.FaultStore) {
	mgr, faults, err := provider.NewURLPoolInDomains("mem://", n, 0, iosim.CostModel{}, true)
	if err != nil {
		panic(err) // a mem:// store always opens
	}
	return mgr, faults
}

func testServices() Services {
	mgr := memPool(4)
	return Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
}

func testBlob(t *testing.T) *Blob {
	t.Helper()
	b, err := Create(testServices(), 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fillVec(t *testing.T, l extent.List, fill byte) extent.Vec {
	t.Helper()
	buf := make([]byte, l.TotalLength())
	for i := range buf {
		buf[i] = fill
	}
	v, err := extent.NewVec(l, buf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCreateOpen(t *testing.T) {
	svc := testServices()
	geo := segtree.Geometry{Capacity: 1 << 16, Page: 512}
	b1, err := Create(svc, 7, geo)
	if err != nil {
		t.Fatal(err)
	}
	if b1.ID() != 7 || b1.Geometry() != geo {
		t.Fatalf("handle = %d %+v", b1.ID(), b1.Geometry())
	}
	b2, err := Open(svc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Geometry() != geo {
		t.Fatalf("Open geometry = %+v", b2.Geometry())
	}
	if _, err := Open(svc, 99); !errors.Is(err, vmanager.ErrUnknownBlob) {
		t.Fatalf("Open unknown err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := testBlob(t)
	data := []byte("the paper's storage backend")
	v, err := b.Write(4000, data, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(v, 4000, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read = %q", got)
	}
}

func TestWriteListNonContiguous(t *testing.T) {
	b := testBlob(t)
	l := extent.List{{Offset: 0, Length: 100}, {Offset: 5000, Length: 200}, {Offset: 100000, Length: 300}}
	v, err := b.WriteList(fillVec(t, l, 0xC3), WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadList(v, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 0xC3 {
			t.Fatalf("byte %d = %x", i, x)
		}
	}
	// Gap must be zero.
	gap, err := b.ReadAt(v, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range gap {
		if x != 0 {
			t.Fatalf("gap byte %d = %x", i, x)
		}
	}
}

func TestWriteListValidation(t *testing.T) {
	b := testBlob(t)
	// Self-overlapping write vector is rejected.
	l := extent.List{{Offset: 0, Length: 100}, {Offset: 50, Length: 100}}
	buf := make([]byte, l.TotalLength())
	if _, err := b.WriteList(extent.Vec{Extents: l, Buf: buf}, WriteOptions{}); err == nil {
		t.Fatal("self-overlapping write must fail")
	}
	// Mismatched buffer.
	if _, err := b.WriteList(extent.Vec{Extents: extent.List{{Offset: 0, Length: 10}}, Buf: make([]byte, 5)}, WriteOptions{}); err == nil {
		t.Fatal("bad buffer must fail")
	}
	// Empty write.
	if _, err := b.WriteList(extent.Vec{}, WriteOptions{}); !errors.Is(err, vmanager.ErrEmptyWrite) {
		t.Fatalf("empty write err = %v", err)
	}
}

func TestVersionsAccumulate(t *testing.T) {
	b := testBlob(t)
	for i := 0; i < 5; i++ {
		if _, err := b.Write(int64(i)*100, []byte{byte(i)}, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := b.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 6 { // versions 0..5
		t.Fatalf("versions = %v", vs)
	}
	info, err := b.Latest()
	if err != nil || info.Version != 5 {
		t.Fatalf("latest = %+v, %v", info, err)
	}
}

func TestSizeTracking(t *testing.T) {
	b := testBlob(t)
	v1, _ := b.Write(100, make([]byte, 50), WriteOptions{})
	if sz, _ := b.Size(v1); sz != 150 {
		t.Fatalf("size v1 = %d", sz)
	}
	v2, _ := b.Write(0, make([]byte, 10), WriteOptions{})
	if sz, _ := b.Size(v2); sz != 150 {
		t.Fatalf("size v2 = %d (must not shrink)", sz)
	}
}

func TestOldSnapshotsSurviveNewWrites(t *testing.T) {
	b := testBlob(t)
	v1, _ := b.Write(0, []byte{1, 1, 1, 1}, WriteOptions{})
	v2, _ := b.Write(1, []byte{2, 2}, WriteOptions{})
	got1, err := b.ReadAt(v1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, []byte{1, 1, 1, 1}) {
		t.Fatalf("v1 = %v", got1)
	}
	got2, err := b.ReadAt(v2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, []byte{1, 2, 2, 1}) {
		t.Fatalf("v2 = %v", got2)
	}
}

func TestReadLatest(t *testing.T) {
	b := testBlob(t)
	b.Write(0, []byte{9}, WriteOptions{})
	data, v, err := b.ReadLatest(extent.List{{Offset: 0, Length: 1}})
	if err != nil || v != 1 || data[0] != 9 {
		t.Fatalf("ReadLatest = %v v%d %v", data, v, err)
	}
}

func TestReadUnpublishedVersionFails(t *testing.T) {
	b := testBlob(t)
	if _, err := b.ReadAt(3, 0, 1); !errors.Is(err, vmanager.ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoWaitEventuallyPublishes(t *testing.T) {
	b := testBlob(t)
	v, err := b.Write(0, []byte{5}, WriteOptions{NoWait: true})
	if err != nil {
		t.Fatal(err)
	}
	// A single writer's version is published as soon as Complete ran,
	// which happened before WriteList returned.
	got, err := b.ReadAt(v, 0, 1)
	if err != nil || got[0] != 5 {
		t.Fatalf("read = %v, %v", got, err)
	}
}

// TestConcurrentOverlappingWriteList is the core atomicity smoke test:
// many goroutines concurrently write overlapping non-contiguous
// vectors; each published snapshot must equal one writer's data in the
// overlap (no interleaving), and the final snapshot must equal the
// last-published writer's pattern across its whole vector.
func TestConcurrentOverlappingWriteList(t *testing.T) {
	b := testBlob(t)
	const writers = 16
	// All writers use the same extent list => total overlap.
	l := extent.List{{Offset: 0, Length: 512}, {Offset: 2048, Length: 512}, {Offset: 8192, Length: 512}}
	versions := make([]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, l.TotalLength())
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			vec, _ := extent.NewVec(l, buf)
			v, err := b.WriteList(vec, WriteOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			versions[w] = v
		}(w)
	}
	wg.Wait()

	// Every snapshot 1..writers must be entirely one writer's bytes.
	byVersion := make(map[uint64]byte)
	for w, v := range versions {
		byVersion[v] = byte(w + 1)
	}
	for v := uint64(1); v <= writers; v++ {
		got, err := b.ReadList(v, l)
		if err != nil {
			t.Fatal(err)
		}
		// Within the written extents, snapshot v must show the bytes
		// of the writer holding ticket v (full overlap => last write
		// wins for the whole list).
		want := byVersion[v]
		for i, x := range got {
			if x != want {
				t.Fatalf("snapshot %d byte %d = %d, want %d (interleaved write!)", v, i, x, want)
			}
		}
	}
}

// TestConcurrentDisjointWriters checks that concurrent writers to
// disjoint regions all land intact.
func TestConcurrentDisjointWriters(t *testing.T) {
	b := testBlob(t)
	const writers = 8
	const span = 4096
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, span)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			if _, err := b.Write(int64(w)*span, buf, WriteOptions{}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	info, _ := b.Latest()
	got, err := b.ReadAt(info.Version, 0, writers*span)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < span; i++ {
			if got[w*span+i] != byte(w+1) {
				t.Fatalf("writer %d byte %d = %d", w, i, got[w*span+i])
			}
		}
	}
}

func TestStripingAcrossProviders(t *testing.T) {
	mgr := memPool(4)
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// 8 pages of data must spread over all 4 providers.
	if _, err := b.Write(0, make([]byte, 8*1024), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range mgr.Providers() {
		if p.Store().Count() != 2 {
			t.Fatalf("provider %d holds %d chunks, want 2", p.ID(), p.Store().Count())
		}
	}
}

// segtreeGeometry is a bench/test helper constructing a geometry.
func segtreeGeometry(capacity, page int64) segtree.Geometry {
	return segtree.Geometry{Capacity: capacity, Page: page}
}

func TestDiffAPI(t *testing.T) {
	b := testBlob(t)
	v1, _ := b.Write(0, []byte{1, 1, 1, 1}, WriteOptions{})
	v2, _ := b.Write(2, []byte{2, 2}, WriteOptions{})
	d, err := b.Diff(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	changed := extent.List{{Offset: 2, Length: 2}}
	if !changed.CoveredBy(d) {
		t.Fatalf("diff %v does not cover the change", d)
	}
	// Diff against an unpublished version fails.
	if _, err := b.Diff(v1, 99); err == nil {
		t.Fatal("diff of unknown version must fail")
	}
}

// replicatedServices builds a deployment with replication degree R,
// returning the manager so tests can kill providers.
func replicatedServices(r int) (Services, *provider.Manager) {
	mgr := memPool(4)
	router := provider.NewRouter(mgr)
	router.SetReplicas(r)
	return Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: router,
	}, mgr
}

func TestWriteRecordsReplicaSets(t *testing.T) {
	svc, _ := replicatedServices(2)
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	// A write spanning several pages stores several chunks, each on two
	// distinct providers: the router's placement records the set, the
	// leaf ref names the chunk alone.
	v, err := b.Write(0, make([]byte, 2048), WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.svc.VM.Snapshot(1, v)
	if err != nil {
		t.Fatal(err)
	}
	frags, _, err := b.tree.Resolve(info.Root, extent.List{{Offset: 0, Length: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) == 0 {
		t.Fatal("no fragments resolved")
	}
	router := svc.Data.(*provider.Router)
	for _, f := range frags {
		ids, ok := router.Locate(f.Ref.Key)
		if !ok || len(ids) != 2 || ids[0] == ids[1] {
			t.Fatalf("chunk %v placed on %v, want 2 distinct providers", f.Ref.Key, ids)
		}
	}
}

func TestReadFailsOverAcrossReplicas(t *testing.T) {
	svc, mgr := replicatedServices(2)
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 3000)
	v, err := b.Write(100, payload, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Whichever single provider dies, every byte stays readable.
	for id := 0; id < 4; id++ {
		if err := mgr.SetDown(provider.ID(id), true); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadAt(v, 100, 3000)
		if err != nil {
			t.Fatalf("provider %d down: %v", id, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("provider %d down: corrupt read", id)
		}
		if err := mgr.SetDown(provider.ID(id), false); err != nil {
			t.Fatal(err)
		}
	}
}
