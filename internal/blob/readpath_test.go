package blob

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/provider"
	"repro/internal/segtree"
)

// lateMeta answers a seeded half of the write path's TryGetNode probes
// with "not stored yet" — always a legal answer — so builders chain
// leaves instead of flattening them, as they do when writers race. (Only
// probes for another handle's leaves come this far: a handle's node cache
// answers for the leaves it stored itself.)
type lateMeta struct {
	segtree.NodeStore
	mu      sync.Mutex
	rng     *rand.Rand
	chained int // leaves stored with a back-pointer
}

func (m *lateMeta) PutNode(blob uint64, key segtree.NodeKey, n *segtree.Node) error {
	if !n.Prev.IsZero() {
		m.mu.Lock()
		m.chained++
		m.mu.Unlock()
	}
	return m.NodeStore.PutNode(blob, key, n)
}

func (m *lateMeta) TryGetNode(blob uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	m.mu.Lock()
	late := m.rng.Intn(2) == 0
	m.mu.Unlock()
	if late {
		return nil, false, nil
	}
	return m.NodeStore.TryGetNode(blob, key)
}

// randomWrite picks 1-4 disjoint extents — page-aligned, partial-page
// and page-crossing alike — with random payload.
func randomWrite(t *testing.T, rng *rand.Rand, geo segtree.Geometry) extent.Vec {
	t.Helper()
	var l extent.List
	for n := 1 + rng.Intn(4); len(l) < n; {
		e := extent.Extent{Offset: rng.Int63n(geo.Capacity - 1), Length: 1 + rng.Int63n(3*geo.Page)}
		if rng.Intn(3) == 0 {
			e.Offset -= e.Offset % geo.Page
		}
		if e.End() > geo.Capacity || l.IntersectsExtent(e) {
			continue
		}
		l = append(l, e).Normalize()
	}
	buf := make([]byte, l.TotalLength())
	rng.Read(buf)
	vec, err := extent.NewVec(l, buf)
	if err != nil {
		t.Fatal(err)
	}
	return vec
}

// randomQuery builds a caller layout that is deliberately not
// normalized: unsorted, overlapping, duplicated, zero-gap and empty
// extents.
func randomQuery(rng *rand.Rand, capacity int64) extent.List {
	var q extent.List
	for n := 1 + rng.Intn(7); len(q) < n; {
		e := extent.Extent{Offset: rng.Int63n(capacity), Length: rng.Int63n(6 << 10)}
		if len(q) > 0 {
			prev := q[rng.Intn(len(q))]
			switch rng.Intn(5) {
			case 0:
				e = prev // duplicate
			case 1:
				e.Offset = prev.Offset + prev.Length/2 // overlaps prev
			case 2:
				e.Offset = prev.End() // zero gap
			case 3:
				e.Length = 0
			}
		}
		if e.End() > capacity {
			continue
		}
		q = append(q, e)
	}
	return q
}

// TestPropReadListMatchesFlatModel replays seeded random histories —
// multi-version overlays, partial-page writes, holes, chained leaves,
// from two writing handles in turn — and compares
// random non-normalized list-reads of every version, through a writing
// handle and through one that only reads, byte for byte with a flat image
// per version.
func TestPropReadListMatchesFlatModel(t *testing.T) {
	geo := segtree.Geometry{Capacity: 64 << 10, Page: 1 << 10}
	chained := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		svc := testServices()
		meta := &lateMeta{NodeStore: svc.Meta, rng: rand.New(rand.NewSource(seed))}
		svc.Meta = meta
		w, err := Create(svc, 1, geo)
		if err != nil {
			t.Fatal(err)
		}
		writers := []*Blob{w, openWith(t, svc, svc.Data)}
		r := openWith(t, svc, svc.Data)
		models := [][]byte{make([]byte, geo.Capacity)} // version 0 is all holes
		for i := 0; i < 16; i++ {
			vec := randomWrite(t, rng, geo)
			v, err := writers[i%2].WriteList(vec, WriteOptions{})
			if err != nil {
				t.Fatalf("seed %d write %d: %v", seed, i, err)
			}
			if v != uint64(len(models)) {
				t.Fatalf("seed %d: version %d after %d writes", seed, v, len(models)-1)
			}
			img := bytes.Clone(models[v-1])
			vec.ScatterInto(img, 0)
			models = append(models, img)
		}
		for i := 0; i < 60; i++ {
			q := randomQuery(rng, geo.Capacity)
			v := uint64(rng.Intn(len(models)))
			var want []byte
			for _, e := range q {
				want = append(want, models[v][e.Offset:e.End()]...)
			}
			for name, h := range map[string]*Blob{"writer": w, "reader": r} {
				got, err := h.ReadList(v, q)
				if err != nil {
					t.Fatalf("seed %d %s: ReadList(v%d, %v): %v", seed, name, v, q, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d %s: ReadList(v%d, %v) differs from the model", seed, name, v, q)
				}
			}
		}
		got, v, err := r.ReadLatest(extent.List{geo.Root()})
		if err != nil || v != uint64(len(models)-1) || !bytes.Equal(got, models[v]) {
			t.Fatalf("seed %d: ReadLatest = v%d, %v; differs from the model", seed, v, err)
		}
		chained += meta.chained
	}
	if chained == 0 {
		t.Error("no history chained a leaf: the chain walk went untested")
	}
	t.Logf("%d chained leaves across the histories", chained)
}

// stridedQuery is n extents of length bytes, pitch apart.
func stridedQuery(n int, length, pitch int64) extent.List {
	q := make(extent.List, n)
	for i := range q {
		q[i] = extent.Extent{Offset: int64(i) * pitch, Length: length}
	}
	return q
}

// readAllocBytes is the heap allocated per warm ReadList of q.
func readAllocBytes(t *testing.T, b *Blob, v uint64, q extent.List) int64 {
	t.Helper()
	const rounds = 8
	var before, after runtime.MemStats
	for i := -1; i < rounds; i++ {
		if i == 0 { // round -1 warmed the caches
			runtime.ReadMemStats(&before)
		}
		if _, err := b.ReadList(v, q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// A list-read costs what it returns: the same 16 x 16 KiB query
// allocates the same at a 64 KiB pitch as at a 1 MiB pitch (nothing is
// sized by the 15 MiB the sparse one spans), and no more than the
// returned buffer plus one buffer per fragment.
func TestReadListAllocationIndependentOfSpan(t *testing.T) {
	b, err := Create(testServices(), 1, segtreeGeometry(16<<20, 64<<10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(0, make([]byte, 16<<20), WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 64 << 10 // tree walk, plan, goroutines
	dense := readAllocBytes(t, b, v, stridedQuery(16, 16<<10, 64<<10))
	sparse := readAllocBytes(t, b, v, stridedQuery(16, 16<<10, 1<<20))
	t.Logf("allocated per read: %d B at a 64 KiB pitch, %d B at a 1 MiB pitch", dense, sparse)
	if d := sparse - dense; d > slack || d < -slack {
		t.Errorf("allocation follows the span: %d B dense, %d B sparse", dense, sparse)
	}
	if user := int64(16 * 16 << 10); sparse > 2*user+slack {
		t.Errorf("%d B allocated to return %d B", sparse, user)
	}
}

// gatedData holds every fragment fetch at a gate and records the most
// fetches, and the most fragment bytes, ever in flight together.
type gatedData struct {
	DataService
	gate chan struct{} // closed to let every fetch through

	mu                 sync.Mutex
	calls, bytes       int64
	maxCalls, maxBytes int64
}

func (g *gatedData) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	g.mu.Lock()
	g.calls++
	g.bytes += length
	g.maxCalls, g.maxBytes = max(g.maxCalls, g.calls), max(g.maxBytes, g.bytes)
	g.mu.Unlock()
	<-g.gate
	defer func() {
		g.mu.Lock()
		g.calls--
		g.bytes -= length
		g.mu.Unlock()
	}()
	return g.DataService.GetFrom(replicas, key, off, length)
}

func (g *gatedData) inFlight() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// The read window is bytes — DefaultWindow pages' worth — under a fixed
// ceiling on the count: a read of many small fragments keeps many in
// flight, a read of page-sized ones exactly DefaultWindow, and no read
// more than maxReadFragments.
func TestReadWindowIsBytes(t *testing.T) {
	const fragments = 200
	for name, tc := range map[string]struct {
		page, frag int64
		want       int64 // fragments in flight once the window is full
	}{
		"small fragments fill the byte window": {page: 16 << 10, frag: 4 << 10, want: DefaultWindow * (16 << 10) / (4 << 10)},
		"tiny fragments stop at the ceiling":   {page: 64 << 10, frag: 4 << 10, want: maxReadFragments},
		"page-sized fragments keep the window": {page: 4 << 10, frag: 4 << 10, want: DefaultWindow},
	} {
		t.Run(name, func(t *testing.T) {
			svc := testServices()
			b, err := Create(svc, 1, segtreeGeometry(256*tc.page, tc.page))
			if err != nil {
				t.Fatal(err)
			}
			// One fragment per page: 200 extents of frag bytes at a page
			// pitch, written as one list and read back the same way.
			q := stridedQuery(fragments, tc.frag, tc.page)
			want := make([]byte, q.TotalLength())
			rand.New(rand.NewSource(1)).Read(want)
			v, err := b.WriteList(extent.Vec{Extents: q, Buf: want}, WriteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			gated := &gatedData{DataService: svc.Data, gate: make(chan struct{})}
			svc.Data = gated
			r, err := Open(svc, 1)
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				data []byte
				err  error
			}
			done := make(chan result, 1)
			go func() {
				data, err := r.ReadList(v, q)
				done <- result{data, err}
			}()
			// Nothing completes while the gate is shut, so the read stalls
			// with its window exactly full.
			for deadline := time.Now().Add(5 * time.Second); gated.inFlight() < tc.want; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d fetches in flight, the window should admit %d", gated.inFlight(), tc.want)
				}
			}
			close(gated.gate)
			res := <-done
			if res.err != nil || !bytes.Equal(res.data, want) {
				t.Fatalf("read back: %v", res.err)
			}
			if gated.maxCalls != tc.want {
				t.Errorf("at most %d fetches were in flight, want exactly %d", gated.maxCalls, tc.want)
			}
			if limit := DefaultWindow * tc.page; gated.maxBytes > limit {
				t.Errorf("%d fragment bytes in flight, the window is %d", gated.maxBytes, limit)
			}
		})
	}
}

// shortData returns every fragment one byte short.
type shortData struct{ DataService }

func (s shortData) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	d, fresh, err := s.DataService.GetFrom(replicas, key, off, length)
	if err == nil && len(d) > 0 {
		d = d[:len(d)-1]
	}
	return d, fresh, err
}

// A fragment that comes back shorter than its ref must fail the read
// and name the chunk, not read as zeros.
func TestReadListRejectsShortFragment(t *testing.T) {
	svc := testServices()
	b, err := Create(svc, 1, segtreeGeometry(1<<20, 1<<10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := b.Write(100, bytes.Repeat([]byte{9}, 300), WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Data = shortData{svc.Data}
	r, err := Open(svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	key := chunk.Key{Blob: 1, Version: v, Index: 0}
	got, err := r.ReadAt(v, 100, 300)
	if err == nil {
		t.Fatalf("short fragment read as %d bytes ending in %v", len(got), got[len(got)-1])
	}
	if !strings.Contains(err.Error(), key.String()) {
		t.Fatalf("error %q does not name chunk %v", err, key)
	}
}

// countedData is a DataService that counts its GetFrom calls.
type countedData struct {
	DataService

	mu   sync.Mutex
	from int
}

func (d *countedData) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	d.mu.Lock()
	d.from++
	d.mu.Unlock()
	return d.DataService.GetFrom(replicas, key, off, length)
}

// manyData is a countedData that also takes the reads as a list, as the
// framed client does. It records the lists and the reads they carried,
// and whether any read reached outside its own place in the destination.
type manyData struct {
	countedData
	failInto error         // returned by every GetManyInto, if set
	fresh    []provider.ID // set as each read's Fresh

	lists, reads int
	unclipped    bool
}

func (d *manyData) PutMany(keys []chunk.Key, data [][]byte) ([][]provider.ID, error) {
	return nil, errors.New("manyData: read-only")
}

// A list's reads must lie within its destination, each apart from every
// other: one that does not counts as unclipped.
func (d *manyData) GetManyInto(dst []byte, reads []ChunkRead) error {
	d.mu.Lock()
	d.lists++
	d.reads += len(reads)
	for i, r := range reads {
		d.unclipped = d.unclipped || r.At < 0 || r.Length < 0 || r.At+r.Length > int64(len(dst))
		for _, o := range reads[:i] {
			d.unclipped = d.unclipped || (r.At < o.At+o.Length && o.At < r.At+r.Length)
		}
	}
	d.mu.Unlock()
	for i := range reads {
		r := &reads[i]
		if d.failInto != nil {
			return d.failInto
		}
		data, _, err := d.DataService.GetFrom(r.Replicas, r.Key, r.Off, r.Length)
		if err != nil {
			return err
		}
		copy(dst[r.At:r.At+r.Length], data)
		r.Fresh = d.fresh
	}
	return nil
}

// A data service that takes a list of reads into the caller's buffer is
// asked to exactly for the fragments that land whole in one place, all
// in one list, each read within its own place in the destination; every
// other fragment, and every fragment of a service without the list, is
// fetched and copied. Both give the same bytes, for every shape of
// query.
func TestReadListIntoAndCopyAgree(t *testing.T) {
	const page = 1 << 10
	svc := testServices()
	w, err := Create(svc, 1, segtreeGeometry(64*page, page))
	if err != nil {
		t.Fatal(err)
	}
	// Pages 0-2 whole, 300 bytes inside page 5, holes everywhere else.
	written := extent.List{{Offset: 0, Length: 3 * page}, {Offset: 5*page + 100, Length: 300}}
	payload := make([]byte, written.TotalLength())
	rand.New(rand.NewSource(7)).Read(payload)
	v, err := w.WriteList(extent.Vec{Extents: written, Buf: payload}, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	model := make([]byte, 64*page)
	extent.Vec{Extents: written, Buf: payload}.ScatterInto(model, 0)

	for name, tc := range map[string]struct {
		q            extent.List
		listed, from int // fragment fetches of each form, with the list on offer
	}{
		"sorted, whole fragments":          {extent.List{{Offset: 0, Length: 3 * page}}, 3, 0},
		"sorted, across holes":             {extent.List{{Offset: 0, Length: page}, {Offset: 3 * page, Length: page}, {Offset: 5 * page, Length: page}}, 2, 0},
		"sub-fragment":                     {extent.List{{Offset: 100, Length: 200}}, 1, 0},
		"unsorted, disjoint":               {extent.List{{Offset: 2 * page, Length: page}, {Offset: 0, Length: page}}, 2, 0},
		"overlapping":                      {extent.List{{Offset: 0, Length: page}, {Offset: page / 2, Length: page}}, 1, 1},
		"repeated":                         {extent.List{{Offset: 0, Length: page}, {Offset: 0, Length: page}}, 0, 1},
		"one fragment under two extents":   {extent.List{{Offset: 0, Length: page / 2}, {Offset: page / 2, Length: page / 2}}, 0, 1},
		"only a hole":                      {extent.List{{Offset: 10 * page, Length: 2 * page}}, 0, 0},
		"empty extents":                    {extent.List{{Offset: 0, Length: 0}, {Offset: page, Length: 0}}, 0, 0},
		"empty list":                       {extent.List{}, 0, 0},
		"everything, sorted and then some": {extent.List{{Offset: 0, Length: 8 * page}, {Offset: 5 * page, Length: page}}, 3, 1},
	} {
		t.Run(name, func(t *testing.T) {
			var want []byte
			for _, e := range tc.q {
				want = append(want, model[e.Offset:e.End()]...)
			}
			plain := &countedData{DataService: svc.Data}
			copied, err := openWith(t, svc, plain).ReadList(v, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			many := &manyData{countedData: countedData{DataService: svc.Data}}
			listed, err := openWith(t, svc, many).ReadList(v, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(copied, want) || !bytes.Equal(listed, want) {
				t.Fatalf("copied matches the model: %v, listed: %v", bytes.Equal(copied, want), bytes.Equal(listed, want))
			}
			if many.lists > 1 || many.reads != tc.listed || many.from != tc.from {
				t.Errorf("with the list on offer: %d lists of %d reads and %d GetFrom calls, want one list of %d and %d",
					many.lists, many.reads, many.from, tc.listed, tc.from)
			}
			if plain.from != tc.listed+tc.from {
				t.Errorf("without the list on offer: %d GetFrom calls, want %d", plain.from, tc.listed+tc.from)
			}
			if many.unclipped {
				t.Error("a read reached outside its place in the destination")
			}
		})
	}

	// What GetManyInto returns is handled as what GetFrom returns is: an
	// error fails the read, a fresh replica set is cached for the chunk.
	q := extent.List{{Offset: 0, Length: page}}
	boom := errors.New("boom")
	fresh := []provider.ID{3, 1}
	with := func(failInto error, fresh []provider.ID) DataService {
		return &manyData{countedData: countedData{DataService: svc.Data}, failInto: failInto, fresh: fresh}
	}
	if _, err := openWith(t, svc, with(boom, nil)).ReadList(v, q); !errors.Is(err, boom) {
		t.Fatalf("a failed GetManyInto: ReadList returned %v", err)
	}
	r := openWith(t, svc, with(nil, fresh))
	if _, err := r.ReadList(v, q); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.FreshHint(chunk.Key{Blob: 1, Version: v, Index: 0}); !ok || !slices.Equal(got, fresh) {
		t.Fatalf("fresh set returned by GetManyInto: cached %v, %v", got, ok)
	}
}

// openWith opens blob 1 of svc on another data service.
func openWith(t *testing.T, svc Services, data DataService) *Blob {
	t.Helper()
	svc.Data = data
	b, err := Open(svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A reader handle follows a writer across 100 versions, re-reading
// through its node cache after every write: no read may ever see a
// node of the wrong version.
func TestReaderFollowsWriterThroughNodeCache(t *testing.T) {
	geo := segtree.Geometry{Capacity: 64 << 10, Page: 1 << 10}
	svc := testServices()
	w, err := Create(svc, 1, geo)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(svc, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	models := [][]byte{make([]byte, geo.Capacity)}
	for i := 1; i <= 100; i++ {
		vec := randomWrite(t, rng, geo)
		v, err := w.WriteList(vec, WriteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		img := bytes.Clone(models[v-1])
		vec.ScatterInto(img, 0)
		models = append(models, img)

		q := randomQuery(rng, geo.Capacity)
		got, latest, err := r.ReadLatest(q)
		if err != nil || latest != v {
			t.Fatalf("ReadLatest after v%d = v%d, %v", v, latest, err)
		}
		old := uint64(rng.Intn(len(models)))
		gotOld, err := r.ReadList(old, q)
		if err != nil {
			t.Fatal(err)
		}
		var want, wantOld []byte
		for _, e := range q {
			want = append(want, models[v][e.Offset:e.End()]...)
			wantOld = append(wantOld, models[old][e.Offset:e.End()]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("v%d: latest read of %v differs from the model", v, q)
		}
		if !bytes.Equal(gotOld, wantOld) {
			t.Fatalf("v%d: read of %v at v%d differs from the model", v, q, old)
		}
	}
	st := r.NodeCacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries == 0 || st.Entries > nodeCacheEntries {
		t.Fatalf("reader node cache %+v: want hits, misses and 1..%d entries", st, nodeCacheEntries)
	}
	if st := w.NodeCacheStats(); st.Entries == 0 {
		t.Fatalf("writer node cache %+v: puts were not written through", st)
	}
}
