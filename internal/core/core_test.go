package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/blob"
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

func services() blob.Services {
	mgr := memPool(4)
	return blob.Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
}

func backend(t *testing.T) *VersioningBackend {
	t.Helper()
	be, err := NewVersioning(services(), 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

func TestNameAndInterfaces(t *testing.T) {
	be := backend(t)
	if be.Name() != "versioning" {
		t.Fatalf("name = %q", be.Name())
	}
	var _ Backend = be
}

func TestWriteListReadListRoundTrip(t *testing.T) {
	be := backend(t)
	l := extent.List{{Offset: 10, Length: 100}, {Offset: 5000, Length: 50}}
	buf := bytes.Repeat([]byte{0xEE}, int(l.TotalLength()))
	vec, _ := extent.NewVec(l, buf)
	v, err := be.WriteList(vec)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version = %d", v)
	}
	got, ver, err := be.ReadList(l)
	if err != nil || ver != 1 {
		t.Fatalf("ReadList ver=%d err=%v", ver, err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("data mismatch")
	}
}

func TestReadListAtHistoricalSnapshots(t *testing.T) {
	be := backend(t)
	l := extent.List{{Offset: 0, Length: 8}}
	for round := 1; round <= 3; round++ {
		buf := bytes.Repeat([]byte{byte(round)}, 8)
		vec, _ := extent.NewVec(l, buf)
		if _, err := be.WriteList(vec); err != nil {
			t.Fatal(err)
		}
	}
	for v := Version(1); v <= 3; v++ {
		got, err := be.ReadListAt(v, l)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(v) {
			t.Fatalf("snapshot %d data = %d", v, got[0])
		}
	}
	latest, err := be.Latest()
	if err != nil || latest != 3 {
		t.Fatalf("latest = %d, %v", latest, err)
	}
	vs, err := be.Versions()
	if err != nil || len(vs) != 4 {
		t.Fatalf("versions = %v, %v", vs, err)
	}
}

func TestSizeAndStats(t *testing.T) {
	be := backend(t)
	vec, _ := extent.NewVec(extent.List{{Offset: 100, Length: 20}}, make([]byte, 20))
	if _, err := be.WriteList(vec); err != nil {
		t.Fatal(err)
	}
	sz, err := be.Size()
	if err != nil || sz != 120 {
		t.Fatalf("size = %d, %v", sz, err)
	}
	if _, _, err := be.ReadList(extent.List{{Offset: 0, Length: 10}}); err != nil {
		t.Fatal(err)
	}
	st := be.Stats()
	if st.Writes != 1 || st.BytesWritten != 20 || st.Reads != 1 || st.BytesRead != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOpenVersioning(t *testing.T) {
	svc := services()
	if _, err := NewVersioning(svc, 7, segtree.Geometry{Capacity: 1 << 14, Page: 256}); err != nil {
		t.Fatal(err)
	}
	be, err := OpenVersioning(svc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Latest(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenVersioning(svc, 99); err == nil {
		t.Fatal("open unknown blob must fail")
	}
	if _, err := NewVersioning(svc, 7, segtree.Geometry{Capacity: 1 << 14, Page: 256}); err == nil {
		t.Fatal("duplicate create must fail")
	}
}

// TestConcurrentAtomicSemantics pins the Backend contract: overlapping
// concurrent WriteList calls never interleave.
func TestConcurrentAtomicSemantics(t *testing.T) {
	be := backend(t)
	l := extent.List{{Offset: 0, Length: 256}, {Offset: 4096, Length: 256}}
	const writers = 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(w + 1)}, int(l.TotalLength()))
			vec, _ := extent.NewVec(l, buf)
			if _, err := be.WriteList(vec); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	// Every published snapshot must be single-valued over l.
	latest, _ := be.Latest()
	for v := Version(1); v <= latest; v++ {
		got, err := be.ReadListAt(v, l)
		if err != nil {
			t.Fatal(err)
		}
		first := got[0]
		for i, b := range got {
			if b != first {
				t.Fatalf("snapshot %d interleaved at byte %d", v, i)
			}
		}
	}
}

func TestScrub(t *testing.T) {
	mgr := memPool(4)
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	svc := blob.Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: router,
	}
	be, err := NewVersioning(svc, 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		buf := bytes.Repeat([]byte{byte(i + 1)}, 2000)
		vec, _ := extent.NewVec(extent.List{{Offset: int64(i) * 1500, Length: 2000}}, buf)
		if _, err := be.WriteList(vec); err != nil {
			t.Fatal(err)
		}
	}
	// Healthy scrub covers the initial empty snapshot plus 3 writes.
	n, err := be.Scrub()
	if err != nil || n != 4 {
		t.Fatalf("Scrub = %d, %v", n, err)
	}
	// One provider down: replicated snapshots still scrub clean.
	if err := mgr.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	n, err = be.Scrub()
	if err != nil || n != 4 {
		t.Fatalf("degraded Scrub = %d, %v", n, err)
	}
	// Both holders of a replica pair down beats R=2: the scrub must
	// report the loss (round-robin placement pairs 0 with 1).
	if err := mgr.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if _, err := be.Scrub(); err == nil {
		t.Fatal("scrub with two providers down at R=2 must fail")
	}
}
