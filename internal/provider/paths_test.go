package provider

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metrics"
)

// The scenario tables of the router's data path: every way in — Get,
// GetFrom, OpenFrom; Put, PutStream — is run through the same scenarios
// under the three placements, and held to the same bytes, fresh set,
// read-repair notes, health reports, locality counts and metric counts.
// They are one read core and one put core underneath; these tables are
// what says so from outside.

// pathRig is one router over fault stores with everything the data path
// reports to wired in and counted.
type pathRig struct {
	r      *Router
	faults []*chunk.FaultStore
	health *HealthMonitor
	reg    *metrics.Registry
	notes  atomic.Int64
}

// placements are the three the wall-clock workloads run. R3 racks six
// providers into three domains; its reads get a local domain per chunk
// (see readRig), so the walk order is fixed: the local copy first.
var placements = map[string]struct {
	providers, domains int
	replicas, k, m     int
}{
	"R1":    {providers: 4, replicas: 1},
	"R3":    {providers: 6, domains: 3, replicas: 3},
	"rs4+2": {providers: 6, k: 4, m: 2},
}

func newPathRig(t *testing.T, placement string) *pathRig {
	t.Helper()
	p, ok := placements[placement]
	if !ok {
		t.Fatalf("unknown placement %q", placement)
	}
	mgr, faults := NewFaultPoolInDomains(p.providers, p.domains, iosim.CostModel{})
	rig := &pathRig{r: NewRouter(mgr), faults: faults, reg: metrics.NewRegistry()}
	rig.r.SetReplicas(p.replicas)
	if err := rig.r.SetCoding(p.k, p.m); err != nil {
		t.Fatal(err)
	}
	rig.r.SetMetrics(rig.reg)
	// A threshold no scenario reaches: reports are counted, nobody is
	// marked down by them.
	rig.health = NewHealthMonitor(mgr, HealthConfig{Threshold: 1000})
	rig.r.SetHealthMonitor(rig.health)
	rig.r.SetDegradedHandler(func(chunk.Key) { rig.notes.Add(1) })
	return rig
}

// reports sums the health monitor's failure and success reports.
func (rig *pathRig) reports() (failures, successes int64) {
	for _, st := range rig.health.Snapshot() {
		failures += st.Failures
		successes += st.Successes
	}
	return failures, successes
}

var (
	pathKey  = chunk.Key{Blob: 1, Version: 1, Index: 0}
	pathData = bytes.Repeat([]byte("one way for chunk bytes to move. "), 40)
)

// readRig is a pathRig holding pathData under pathKey, recorded at
// placed. Under R3 the reader sits in the domain of placed[0], which
// with a fresh read cursor makes every walk of placed try placed[0]
// first.
func readRig(t *testing.T, placement string) (rig *pathRig, placed []ID) {
	t.Helper()
	rig = newPathRig(t, placement)
	placed, err := rig.r.Put(pathKey, pathData)
	if err != nil {
		t.Fatal(err)
	}
	if placement == "R3" {
		rig.r.SetLocalDomain(rig.r.DomainOf(placed[0]))
	}
	return rig, placed
}

// readOutcome is everything one read is observed to do.
type readOutcome struct {
	Data                string
	Err                 string // "", or the sentinel the error matches
	Fresh               []ID
	Notes               int64
	Failures, Successes int64 // health reports
	Locality            ReadLocalityStats
	GetSeconds          float64 // bs_chunk_get_seconds_count
}

// readEntry is one way into the read core.
type readEntry struct {
	name string
	read func(r *Router, hint []ID) ([]byte, []ID, error)
}

var readEntries = []readEntry{
	{"GetFrom", func(r *Router, hint []ID) ([]byte, []ID, error) {
		return r.GetFrom(hint, pathKey, 0, int64(len(pathData)))
	}},
	{"OpenFrom", func(r *Router, hint []ID) ([]byte, []ID, error) {
		rc, fresh, err := r.OpenFrom(hint, pathKey, 0, int64(len(pathData)))
		if err != nil {
			return nil, nil, err
		}
		defer rc.Close()
		data, err := io.ReadAll(rc)
		return data, fresh, err
	}},
	// Get has no hint to give and no fresh set to return: it is held to
	// the outcome of a hintless GetFrom, fresh aside.
	{"Get", func(r *Router, _ []ID) ([]byte, []ID, error) {
		data, err := r.Get(pathKey, 0, int64(len(pathData)))
		return data, nil, err
	}},
}

// observe runs one read and collects what it did, as deltas over what
// the rig had already counted (its set-up put, a repair).
func (rig *pathRig) observe(e readEntry, hint []ID) readOutcome {
	f0, s0 := rig.reports()
	n0 := rig.notes.Load()
	data, fresh, err := e.read(rig.r, hint)
	out := readOutcome{Data: string(data), Fresh: fresh, Notes: rig.notes.Load() - n0, Locality: rig.r.ReadLocality()}
	f1, s1 := rig.reports()
	out.Failures, out.Successes = f1-f0, s1-s0
	out.GetSeconds = rig.reg.Snapshot()["bs_chunk_get_seconds_count"]
	for name, sentinel := range map[string]error{"not-found": chunk.ErrNotFound, "store-down": chunk.ErrDown, "provider-down": ErrProviderDown} {
		if errors.Is(err, sentinel) {
			out.Err = name
		}
	}
	if err != nil && out.Err == "" {
		out.Err = err.Error()
	}
	return out
}

// TestReadPathsAgree is the read table.
func TestReadPathsAgree(t *testing.T) {
	size := int64(len(pathData))
	local := func(n int64) ReadLocalityStats { return ReadLocalityStats{LocalReads: n, LocalBytes: n * size} }
	remote := func(n int64) ReadLocalityStats { return ReadLocalityStats{RemoteReads: n, RemoteBytes: n * size} }
	flat := ReadLocalityStats{}
	// A coded read probes one fragment's length, then gets the k data
	// fragments the whole-chunk range touches.
	const codedDirect = 1 + 4
	// forget makes the key one the router never heard of.
	forget := func(t *testing.T, rig *pathRig, _ []ID) []ID {
		if _, _, err := rig.r.DeleteReplicas(pathKey); err != nil {
			t.Fatal(err)
		}
		return nil
	}

	rows := []struct {
		name      string
		placement string
		// arrange breaks what the scenario breaks and returns the hint the
		// hinted entry points carry.
		arrange func(t *testing.T, rig *pathRig, placed []ID) (hint []ID)
		// want is the outcome of the hinted entry points; Fresh is filled
		// in from freshIsPlacement at run time. wantGet, when set, is the
		// hintless outcome where it legitimately differs.
		want             readOutcome
		freshIsPlacement bool
		wantGet          *readOutcome
	}{
		{
			name: "hint serves", placement: "R1",
			arrange: func(_ *testing.T, _ *pathRig, placed []ID) []ID { return placed },
			want:    readOutcome{Data: string(pathData), Successes: 1, Locality: flat, GetSeconds: 1},
		},
		{
			name: "hint serves", placement: "R3",
			arrange: func(_ *testing.T, _ *pathRig, placed []ID) []ID { return placed },
			want:    readOutcome{Data: string(pathData), Successes: 1, Locality: local(1), GetSeconds: 1},
		},
		{
			// Coded direct: the hint is compared, not read through, and
			// agrees with placement in every position.
			name: "hint serves", placement: "rs4+2",
			arrange: func(_ *testing.T, _ *pathRig, placed []ID) []ID { return placed },
			want:    readOutcome{Data: string(pathData), Successes: codedDirect, Locality: flat, GetSeconds: 1},
		},
		{
			name: "hint stale", placement: "R1", freshIsPlacement: true,
			arrange: func(_ *testing.T, _ *pathRig, _ []ID) []ID { return []ID{77, 78} },
			want:    readOutcome{Data: string(pathData), Successes: 1, Locality: flat, GetSeconds: 1},
		},
		{
			name: "hint stale", placement: "R3", freshIsPlacement: true,
			arrange: func(_ *testing.T, _ *pathRig, _ []ID) []ID { return []ID{77, 78, 79} },
			want:    readOutcome{Data: string(pathData), Successes: 1, Locality: local(1), GetSeconds: 1},
		},
		{
			// The same providers in another order are another coded
			// placement: position matters.
			name: "hint stale", placement: "rs4+2", freshIsPlacement: true,
			arrange: func(_ *testing.T, _ *pathRig, placed []ID) []ID {
				return []ID{placed[1], placed[0], placed[2], placed[3], placed[4], placed[5]}
			},
			want: readOutcome{Data: string(pathData), Successes: codedDirect, Locality: flat, GetSeconds: 1},
		},
		{
			// One copy's store errors once: the read fails over, is noted
			// for read-repair, and the error reaches the health monitor.
			// Placement still records what the hint names: fresh is nil.
			name: "one replica store-errors", placement: "R3",
			arrange: func(_ *testing.T, rig *pathRig, placed []ID) []ID {
				rig.faults[placed[0]].FailNextGets(1)
				return placed
			},
			want: readOutcome{Data: string(pathData), Notes: 1, Failures: 1, Successes: 1, Locality: remote(1), GetSeconds: 1},
		},
		{
			// The hint names a copy whose provider was flagged down and
			// repaired around: it is skipped on the flag — no store
			// attempt, no health report — and, placement being back at
			// degree, not noted; the repaired set comes back as fresh.
			// Hintless, the read goes to the repaired set, whose new copy
			// is the local one.
			name: "stale hint names a flagged-down provider, placement at degree", placement: "R3", freshIsPlacement: true,
			arrange: func(t *testing.T, rig *pathRig, placed []ID) []ID {
				if err := rig.r.SetDown(placed[0], true); err != nil {
					t.Fatal(err)
				}
				if outcome, _, err := rig.r.RepairChunk(pathKey); outcome != RepairRepaired || err != nil {
					t.Fatalf("repair = %v, %v", outcome, err)
				}
				return placed
			},
			want:    readOutcome{Data: string(pathData), Successes: 1, Locality: remote(1), GetSeconds: 1},
			wantGet: &readOutcome{Data: string(pathData), Successes: 1, Locality: local(1), GetSeconds: 1},
		},
		{
			// The hint's one copy fails, and so does placement's — the
			// same one: two store attempts. Hintless there is one.
			name: "every replica down", placement: "R1",
			arrange: func(_ *testing.T, rig *pathRig, placed []ID) []ID {
				rig.faults[placed[0]].SetDown(true)
				return placed
			},
			want:    readOutcome{Err: "store-down", Failures: 2},
			wantGet: &readOutcome{Err: "store-down", Failures: 1},
		},
		{
			name: "every replica down", placement: "R3",
			arrange: func(t *testing.T, rig *pathRig, placed []ID) []ID {
				for _, id := range placed {
					if err := rig.r.SetDown(id, true); err != nil {
						t.Fatal(err)
					}
				}
				return placed
			},
			want: readOutcome{Err: "provider-down"},
		},
		{
			// Three of six fragments gone is one more than m: a probe and
			// a direct read that fail, then too few to reconstruct from.
			name: "every replica down", placement: "rs4+2",
			arrange: func(_ *testing.T, rig *pathRig, placed []ID) []ID {
				for _, id := range placed[:3] {
					rig.faults[id].SetDown(true)
				}
				return placed
			},
			want: readOutcome{Err: "store-down", Failures: 3 + 1 + 3, Successes: 1 + 3},
		},
		{
			name: "unknown key", placement: "R1",
			arrange: forget,
			want:    readOutcome{Err: "not-found"},
		},
		{
			name: "unknown key", placement: "R3",
			arrange: forget,
			want:    readOutcome{Err: "not-found"},
		},
		{
			name: "unknown key", placement: "rs4+2",
			arrange: forget,
			want:    readOutcome{Err: "not-found"},
		},
		{
			// Data fragment 1 is gone: the probe and fragment 0 answer, the
			// direct read of fragment 1 fails, and reconstruction gathers
			// k of the other five past one more failure on it.
			name: "data fragment down", placement: "rs4+2",
			arrange: func(_ *testing.T, rig *pathRig, placed []ID) []ID {
				rig.faults[placed[1]].SetDown(true)
				return placed
			},
			want: readOutcome{Data: string(pathData), Notes: 1, Failures: 2, Successes: 2 + 4, Locality: flat, GetSeconds: 1},
		},
	}
	for _, row := range rows {
		for _, e := range readEntries {
			t.Run(fmt.Sprintf("%s/%s/%s", row.placement, row.name, e.name), func(t *testing.T) {
				rig, placed := readRig(t, row.placement)
				hint := row.arrange(t, rig, placed)
				want := row.want
				if e.name == "Get" {
					if row.wantGet != nil {
						want = *row.wantGet
					}
				} else if row.freshIsPlacement {
					want.Fresh, _ = rig.r.Locate(pathKey)
				}
				if got := rig.observe(e, hint); !reflect.DeepEqual(got, want) {
					t.Fatalf("outcome\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestOpenFromFailsOverOnlyAtOpen pins the one thing the two kinds of
// read do differently: a store error after the stream was handed out
// reaches the consumer — bytes may already have left for it — where a
// byte read would have moved on to the next copy.
func TestOpenFromFailsOverOnlyAtOpen(t *testing.T) {
	rig, placed := readRig(t, "R3")
	rig.faults[placed[0]].FailGetStreamAfter(100)
	rc, fresh, err := rig.r.OpenFrom(placed, pathKey, 0, int64(len(pathData)))
	if err != nil || fresh != nil {
		t.Fatalf("open = %v, fresh %v", err, fresh)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if !errors.Is(err, chunk.ErrInjected) || len(got) > 100 {
		t.Fatalf("mid-stream fault: read %d bytes, err %v; want at most 100 and ErrInjected", len(got), err)
	}
	if n := rig.notes.Load(); n != 0 {
		t.Fatalf("a stream that failed after open noted the chunk %d times", n)
	}
}

// TestStreamReadsBypassReadCache: what a ReadCache does for a read
// depends on how the bytes leave, never on the placement mode. Stream
// reads neither consult nor fill it; byte reads fill it, then hit.
func TestStreamReadsBypassReadCache(t *testing.T) {
	for _, placement := range []string{"R3", "rs4+2"} {
		t.Run(placement, func(t *testing.T) {
			rig, placed := readRig(t, placement)
			cache := NewReadCache(ReadCacheConfig{Shards: 4, MaxBytes: 1 << 20})
			rig.r.SetReadCache(cache)
			for i := 0; i < 2; i++ {
				if got := rig.observe(readEntries[1], placed); got.Data != string(pathData) {
					t.Fatalf("OpenFrom %d: %+v", i, got)
				}
			}
			if st := cache.Stats(); st != (ReadCacheStats{}) {
				t.Fatalf("stream reads touched the cache: %+v", st)
			}
			for i := 0; i < 2; i++ {
				if got := rig.observe(readEntries[0], placed); got.Data != string(pathData) {
					t.Fatalf("GetFrom %d: %+v", i, got)
				}
			}
			if st := cache.Stats(); st.Fills != 1 || st.Hits != 1 || st.Misses != 1 {
				t.Fatalf("byte reads should fill once, then hit once: %+v", st)
			}
		})
	}
}

// countingStore counts which of a store's two put methods, and which of
// its two read methods, the router reached.
type countingStore struct {
	chunk.Store
	puts, streamPuts atomic.Int64
	gets, opens      atomic.Int64
}

func (s *countingStore) Get(key chunk.Key, off, length int64) ([]byte, error) {
	s.gets.Add(1)
	return s.Store.Get(key, off, length)
}

func (s *countingStore) OpenReader(key chunk.Key, off, length int64) (io.ReadCloser, error) {
	s.opens.Add(1)
	return s.Store.OpenReader(key, off, length)
}

func (s *countingStore) Put(key chunk.Key, data []byte) error {
	s.puts.Add(1)
	return s.Store.Put(key, data)
}

func (s *countingStore) PutFromReader(key chunk.Key, size int64, r io.Reader) error {
	s.streamPuts.Add(1)
	return s.Store.PutFromReader(key, size, r)
}

// putOutcome is everything one put is observed to do.
type putOutcome struct {
	Err                 string // "", or the sentinel the error matches
	Stored              int    // IDs returned
	Recorded            int    // IDs placement holds afterwards
	Notes               int64
	Failures, Successes int64 // health reports
	PutTotal, PutBytes  float64
	PutSeconds          float64 // bs_chunk_put_seconds_count
}

// TestPutPathsAgree is the put table: Put and PutStream through the
// same scenarios, held to the same outcome.
func TestPutPathsAgree(t *testing.T) {
	size := float64(len(pathData))
	rows := []struct {
		name      string
		placement string
		down      int // stores killed before the put, from provider 0 up
		want      putOutcome
	}{
		{"all land", "R1", 0, putOutcome{Stored: 1, Recorded: 1, Successes: 1, PutTotal: 1, PutBytes: size, PutSeconds: 1}},
		{"all land", "R3", 0, putOutcome{Stored: 3, Recorded: 3, Successes: 3, PutTotal: 1, PutBytes: size, PutSeconds: 1}},
		{"all land", "rs4+2", 0, putOutcome{Stored: 6, Recorded: 6, Successes: 6, PutTotal: 1, PutBytes: size, PutSeconds: 1}},
		// Quorum met short of degree: committed, and born degraded. A
		// replicated chunk records the copies that landed, a coded one
		// every position.
		{"quorum met short of degree", "R3", 1, putOutcome{Stored: 2, Recorded: 2, Notes: 1, Failures: 1, Successes: 2, PutTotal: 1, PutBytes: size, PutSeconds: 1}},
		{"quorum met short of degree", "rs4+2", 1, putOutcome{Stored: 6, Recorded: 6, Notes: 1, Failures: 1, Successes: 5, PutTotal: 1, PutBytes: size, PutSeconds: 1}},
		// Quorum missed: the put fails, nothing is recorded or counted.
		{"quorum missed", "R1", 4, putOutcome{Err: "store-down", Failures: 1}},
		{"quorum missed", "R3", 4, putOutcome{Err: "store-down", Failures: 2, Successes: 1}},
		{"quorum missed", "rs4+2", 2, putOutcome{Err: "store-down", Failures: 2, Successes: 4}},
	}
	entries := []struct {
		name string
		put  func(r *Router) ([]ID, error)
	}{
		{"Put", func(r *Router) ([]ID, error) { return r.Put(pathKey, pathData) }},
		{"PutStream", func(r *Router) ([]ID, error) {
			return r.PutStream(pathKey, int64(len(pathData)), bytes.NewReader(pathData))
		}},
	}
	for _, row := range rows {
		for _, e := range entries {
			t.Run(fmt.Sprintf("%s/%s/%s", row.placement, row.name, e.name), func(t *testing.T) {
				rig := newPathRig(t, row.placement)
				for _, f := range rig.faults[:row.down] {
					f.SetDown(true)
				}
				ids, err := e.put(rig.r)
				got := putOutcome{Stored: len(ids), Notes: rig.notes.Load()}
				if errors.Is(err, chunk.ErrDown) {
					got.Err = "store-down"
				} else if err != nil {
					got.Err = err.Error()
				}
				placed, _ := rig.r.Locate(pathKey)
				got.Recorded = len(placed)
				got.Failures, got.Successes = rig.reports()
				snap := rig.reg.Snapshot()
				got.PutTotal, got.PutBytes, got.PutSeconds = snap["bs_chunk_put_total"], snap["bs_chunk_put_bytes_total"], snap["bs_chunk_put_seconds_count"]
				if got != row.want {
					t.Fatalf("outcome\n got %+v\nwant %+v", got, row.want)
				}
				if err == nil {
					if data, gerr := rig.r.Get(pathKey, 0, int64(len(pathData))); gerr != nil || !bytes.Equal(data, pathData) {
						t.Fatalf("read back: %v", gerr)
					}
				}
			})
		}
	}
}

// TestPutStreamReachesTheStoreUnbuffered: with one target the stream
// itself is handed to the store's PutFromReader — the zero-copy path —
// while a wider placement buffers once and fans the bytes out.
func TestPutStreamReachesTheStoreUnbuffered(t *testing.T) {
	for _, tc := range []struct {
		replicas         int
		puts, streamPuts int64
	}{{1, 0, 1}, {3, 3, 0}} {
		mgr := NewManager()
		stores := make([]*countingStore, 3)
		for i := range stores {
			stores[i] = &countingStore{Store: chunk.NewMemStore(nil)}
			mgr.Register(New(ID(i), stores[i]))
		}
		r := NewRouter(mgr)
		r.SetReplicas(tc.replicas)
		if _, err := r.PutStream(pathKey, int64(len(pathData)), bytes.NewReader(pathData)); err != nil {
			t.Fatal(err)
		}
		var puts, streamPuts int64
		for _, s := range stores {
			puts += s.puts.Load()
			streamPuts += s.streamPuts.Load()
		}
		if puts != tc.puts || streamPuts != tc.streamPuts {
			t.Fatalf("R=%d PutStream reached Put %d times and PutFromReader %d times, want %d and %d",
				tc.replicas, puts, streamPuts, tc.puts, tc.streamPuts)
		}
	}
}
