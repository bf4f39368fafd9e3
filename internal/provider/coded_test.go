package provider

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
)

// codedRouter builds a fault-injectable router in rs-k+m mode over n
// providers split into the given number of contiguous domains.
func codedRouter(t *testing.T, n, domains, k, m int) (*Router, []*chunk.FaultStore) {
	t.Helper()
	mgr, faults := NewFaultPoolInDomains(n, domains, iosim.CostModel{})
	r := NewRouter(mgr)
	if err := r.SetCoding(k, m); err != nil {
		t.Fatal(err)
	}
	return r, faults
}

func TestParseCoding(t *testing.T) {
	for _, tc := range []struct {
		in   string
		k, m int
		ok   bool
	}{
		{"", 0, 0, true},
		{"rs-4+2", 4, 2, true},
		{"rs-1+1", 1, 1, true},
		{"rs-10+4", 10, 4, true},
		{"rs-0+2", 0, 0, false},
		{"rs-4+0", 0, 0, false},
		{"rs-4-2", 0, 0, false},
		{"rs-", 0, 0, false},
		{"xor-4+2", 0, 0, false},
		{"4+2", 0, 0, false},
		{"rs-200+60", 0, 0, false}, // k+m > 256
		{"rs-04+2", 4, 2, true},
		// Nothing may follow, precede or pad the two integers: each of
		// these once booted a cluster as rs-4+2.
		{"rs-4+2+9", 0, 0, false},
		{"rs-4+2xyz", 0, 0, false},
		{"rs-+4+2", 0, 0, false},
		{"rs-4+ 2", 0, 0, false},
		{"rs-4++2", 0, 0, false},
		{"rs-4+-2", 0, 0, false},
		{"rs-4+2 ", 0, 0, false},
		{"rs-4+2\n", 0, 0, false},
		{"rs-99999999999999999999+2", 0, 0, false},
	} {
		k, m, err := ParseCoding(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParseCoding(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && (k != tc.k || m != tc.m) {
			t.Fatalf("ParseCoding(%q) = %d+%d, want %d+%d", tc.in, k, m, tc.k, tc.m)
		}
	}
}

// FuzzParseCoding: the spec parser never panics, and whatever it accepts
// is a legal code whose canonical spelling parses to the same pair.
func FuzzParseCoding(f *testing.F) {
	for _, s := range []string{"", "rs-4+2", "rs-10+4", "rs-04+2", "rs-4+2+9", "rs-+4+2", "rs-4+ 2", "rs-200+60", "xor-4+2", "rs-"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, m, err := ParseCoding(s)
		if err != nil || s == "" {
			return
		}
		if _, err := chunk.NewRSCode(k, m); err != nil {
			t.Fatalf("ParseCoding(%q) accepted %d+%d: %v", s, k, m, err)
		}
		k2, m2, err := ParseCoding(fmt.Sprintf("rs-%d+%d", k, m))
		if err != nil || k2 != k || m2 != m {
			t.Fatalf("ParseCoding(%q) = %d+%d, which re-renders to %d+%d (%v)", s, k, m, k2, m2, err)
		}
	})
}

// TestCodedReadCounts pins what a coded read costs in store reads, per
// position: an intact read touches the data fragments it covers and
// nothing else; a degraded one reads k fragments — the surviving data
// fragments and one parity fragment per missing one — each once,
// straight from the store's reader, whichever position is missing.
func TestCodedReadCounts(t *testing.T) {
	const k, m, ss = 4, 2, 1024
	mgr := NewManager()
	stores := make([]*countingStore, k+m)
	faults := make([]*chunk.FaultStore, k+m)
	for i := range stores {
		faults[i] = chunk.NewFaultStore(chunk.NewMemStore(nil))
		stores[i] = &countingStore{Store: faults[i]}
		mgr.Register(New(ID(i), stores[i]))
	}
	r := NewRouter(mgr)
	if err := r.SetCoding(k, m); err != nil {
		t.Fatal(err)
	}
	degraded := 0
	r.SetDegradedHandler(func(chunk.Key) { degraded++ })
	key := chunk.Key{Blob: 3, Version: 1, Index: 4}
	data := make([]byte, k*ss)
	rand.New(rand.NewSource(23)).Read(data)
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	// read runs one Get with the given positions flagged down and
	// returns the OpenReader calls each POSITION saw.
	read := func(name string, off, length int64, down ...int) (opens [k + m]int64) {
		t.Helper()
		for _, s := range stores {
			s.gets.Store(0)
			s.opens.Store(0)
		}
		for _, pos := range down {
			mgr.SetDown(ids[pos], true)
		}
		got, err := r.Get(key, off, length)
		for _, pos := range down {
			mgr.SetDown(ids[pos], false)
		}
		if err != nil || !bytes.Equal(got, data[off:off+length]) {
			t.Fatalf("%s: Get(%d,%d) wrong (%v)", name, off, length, err)
		}
		for pos, id := range ids {
			if g := stores[id].gets.Load(); g != 0 {
				t.Fatalf("%s: position %d served %d Get copies, want none", name, pos, g)
			}
			opens[pos] = stores[id].opens.Load()
		}
		return opens
	}
	for _, tc := range []struct {
		name        string
		off, length int64
		down        []int
		want        [k + m]int64
	}{
		{"intact whole chunk", 0, k * ss, nil, [6]int64{1, 1, 1, 1, 0, 0}},
		{"intact sub-range of fragments 1-2", ss + 10, 1500, nil, [6]int64{0, 1, 1, 0, 0, 0}},
		{"intact sub-range beside a downed fragment", ss + 10, 100, []int{0, 3}, [6]int64{0, 1, 0, 0, 0, 0}},
		{"first data fragment down", 0, k * ss, []int{0}, [6]int64{0, 1, 1, 1, 1, 0}},
		{"middle data fragment down", 0, k * ss, []int{2}, [6]int64{1, 1, 0, 1, 1, 0}},
		{"last data fragment down", 0, k * ss, []int{3}, [6]int64{1, 1, 1, 0, 1, 0}},
		{"two data fragments down", 0, k * ss, []int{0, 2}, [6]int64{0, 1, 0, 1, 1, 1}},
		{"data and first parity down", 0, k * ss, []int{1, 4}, [6]int64{1, 0, 1, 1, 0, 1}},
		{"sub-range inside the downed fragment", 2*ss + 5, 100, []int{2}, [6]int64{1, 1, 0, 1, 1, 0}},
		{"sub-range, another fragment down too", 2*ss + 5, 100, []int{0, 2}, [6]int64{0, 1, 0, 1, 1, 1}},
	} {
		if got := read(tc.name, tc.off, tc.length, tc.down...); got != tc.want {
			t.Errorf("%s: store reads by position = %v, want %v", tc.name, got, tc.want)
		}
	}

	// A store error rather than a flag degrades the read too — right
	// bytes, the chunk handed to read-repair although its flags are all
	// up — and this is the one case that reads a fragment twice: what the
	// direct path had fetched before the error is fetched again. A dead
	// store is decoded around; a one-shot fault (open refused, stream cut
	// mid-fragment) has healed by the second pass.
	for i, tc := range []struct {
		name  string
		fault func()
		want  [k + m]int64
	}{
		{"store of fragment 2 dead", func() { faults[ids[2]].SetDown(true) }, [6]int64{2, 2, 2, 1, 1, 0}},
		{"open refused once on fragment 2", func() { faults[ids[2]].SetDown(false); faults[ids[2]].FailNextGets(1) }, [6]int64{2, 2, 2, 1, 0, 0}},
		{"fragment 1 cut mid-read", func() { faults[ids[1]].FailGetStreamAfter(ss / 2) }, [6]int64{2, 2, 1, 1, 0, 0}},
	} {
		degraded = 0
		tc.fault()
		if got := read(tc.name, 0, k*ss); got != tc.want || degraded != 1 {
			t.Errorf("%d %s: store reads by position = %v, want %v; %d degraded reports, want 1", i, tc.name, got, tc.want, degraded)
		}
	}
}

// TestCodedStripeRotation: a stripe starts at a key-derived position of
// its spread — over many keys fragment 0 lands in every domain about
// equally often, so a lost domain holds a data fragment of some chunks,
// not of all — while what is recorded stays positional: entry i of a
// key's list is the provider that holds fragment i.
func TestCodedStripeRotation(t *testing.T) {
	const k, m = 4, 2
	r, _ := codedRouter(t, 12, 6, k, m)
	code, _ := chunk.NewRSCode(k, m)
	firstIn := map[string]int{}
	keys := 0
	for blob := uint64(1); blob <= 3; blob++ {
		for ver := uint64(1); ver <= 20; ver++ {
			for idx := uint32(0); idx < 10; idx++ {
				key := chunk.Key{Blob: blob, Version: ver, Index: idx}
				data := []byte(fmt.Sprintf("%s: thirty-two bytes or more of it", key))
				ids, err := r.Put(key, data)
				if err != nil {
					t.Fatal(err)
				}
				keys++
				firstIn[r.DomainOf(ids[0])]++
				doms := map[string]bool{}
				for i, frag := range code.Encode(data) {
					doms[r.DomainOf(ids[i])] = true
					got, err := r.byID(ids[i]).Store().Get(key, 0, int64(len(frag)))
					if err != nil || !bytes.Equal(got, frag) {
						t.Fatalf("%s: provider %d at position %d does not hold fragment %d (%v)", key, ids[i], i, i, err)
					}
				}
				if len(doms) != k+m {
					t.Fatalf("%s: stripe %v covers %d domains, want %d", key, ids, len(doms), k+m)
				}
			}
		}
	}
	for _, d := range []string{"zone0", "zone1", "zone2", "zone3", "zone4", "zone5"} {
		if n := firstIn[d]; n < keys/12 || n > keys/4 {
			t.Errorf("fragment 0 of %d stripes starts in %s %d times, want between %d and %d: %v", keys, d, n, keys/12, keys/4, firstIn)
		}
	}
}

func TestCodedPutGetRoundTrip(t *testing.T) {
	r, _ := codedRouter(t, 6, 0, 4, 2)
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1, 7, 100, 4096, 65537} {
		key := chunk.Key{Blob: 1, Version: 1, Index: uint32(size)}
		data := make([]byte, size)
		rng.Read(data)
		ids, err := r.Put(key, data)
		if err != nil {
			t.Fatalf("size %d: Put: %v", size, err)
		}
		if len(ids) != 6 {
			t.Fatalf("size %d: placement has %d fragments, want k+m=6", size, len(ids))
		}
		seen := map[ID]bool{}
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("size %d: duplicate fragment target in %v", size, ids)
			}
			seen[id] = true
		}
		// Full read and a handful of sub-ranges must all come back
		// byte-identical, off the direct (non-degraded) path.
		got, err := r.Get(key, 0, int64(size))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("size %d: full Get mismatch (%v)", size, err)
		}
		for i := 0; i < 8; i++ {
			off := rng.Intn(size)
			length := 1 + rng.Intn(size-off)
			got, err := r.Get(key, int64(off), int64(length))
			if err != nil || !bytes.Equal(got, data[off:off+length]) {
				t.Fatalf("size %d: Get(%d,%d) mismatch (%v)", size, off, length, err)
			}
		}
	}
}

// TestCodedAllLossPatterns is the durability contract, exhaustively: at
// rs-4+2 EVERY single- and double-fragment loss must reconstruct the
// blob byte-identically, over both the mem and disk chunk backends.
func TestCodedAllLossPatterns(t *testing.T) {
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			rawURL := "mem://"
			if backend == "disk" {
				rawURL = "disk://" + t.TempDir()
			}
			mgr, faults, err := NewURLPoolInDomains(rawURL, 6, 0, iosim.CostModel{}, true)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRouter(mgr)
			if err := r.SetCoding(4, 2); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			data := make([]byte, 10000)
			rng.Read(data)
			key := chunk.Key{Blob: 7, Version: 1, Index: 0}
			ids, err := r.Put(key, data)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 6 {
				t.Fatalf("placement %v, want 6 fragments", ids)
			}
			// Every loss pattern {a} and {a,b}: kill those fragment
			// holders at the STORE level, read, compare, revive.
			for a := 0; a < 6; a++ {
				for b := a; b < 6; b++ {
					faults[ids[a]].SetDown(true)
					faults[ids[b]].SetDown(true)
					got, err := r.Get(key, 0, int64(len(data)))
					if err != nil {
						t.Fatalf("loss {%d,%d}: Get: %v", a, b, err)
					}
					if !bytes.Equal(got, data) {
						t.Fatalf("loss {%d,%d}: reconstruction not byte-identical", a, b)
					}
					// Sub-range reads reconstruct too.
					got, err = r.Get(key, 2500, 5000)
					if err != nil || !bytes.Equal(got, data[2500:7500]) {
						t.Fatalf("loss {%d,%d}: sub-range: %v", a, b, err)
					}
					faults[ids[a]].SetDown(false)
					faults[ids[b]].SetDown(false)
				}
			}
			// m+1 = 3 losses is beyond the code's tolerance: the read
			// must FAIL, never fabricate bytes.
			for i := 0; i < 3; i++ {
				faults[ids[i]].SetDown(true)
			}
			if _, err := r.Get(key, 0, int64(len(data))); err == nil {
				t.Fatal("Get with m+1 fragments lost must fail")
			}
		})
	}
}

// TestCodedWriteQuorum: coded mode floors the write quorum at k —
// below k fragments the chunk would be born unreadable.
func TestCodedWriteQuorum(t *testing.T) {
	r, faults := codedRouter(t, 6, 0, 4, 2)
	if q := r.WriteQuorum(); q != 5 {
		t.Fatalf("default coded quorum = %d, want n-1 = 5", q)
	}
	// The floor: an explicit quorum below k clamps up to k.
	r.SetWriteQuorum(2)
	if q := r.WriteQuorum(); q != 4 {
		t.Fatalf("quorum 2 clamps to %d, want floor k = 4", q)
	}
	r.SetWriteQuorum(0)

	// One dead store: 5/6 fragments land, default quorum met, and the
	// placement still records all six positions.
	faults[3].SetDown(true)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	data := bytes.Repeat([]byte("quorum"), 100)
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatalf("Put with one dead store: %v", err)
	}
	if len(ids) != 6 {
		t.Fatalf("placement records %d positions, want all 6", len(ids))
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded-at-birth Get: %v", err)
	}

	// Two dead stores: 4/6 < default quorum 5 — the write fails.
	faults[4].SetDown(true)
	if _, err := r.Put(chunk.Key{Blob: 2}, data); err == nil {
		t.Fatal("Put below quorum must fail")
	}
	// Relaxed to the floor k: 4/6 commits.
	r.SetWriteQuorum(4)
	if _, err := r.Put(chunk.Key{Blob: 3}, data); err != nil {
		t.Fatalf("Put at floor quorum: %v", err)
	}
}

// TestCodedDegradedReadReporting: a coded read that had to reconstruct
// must feed the degraded handler — it is the read-repair signal.
func TestCodedDegradedReadReporting(t *testing.T) {
	r, faults := codedRouter(t, 6, 0, 4, 2)
	var mu sync.Mutex
	var degraded []chunk.Key
	r.SetDegradedHandler(func(key chunk.Key) {
		mu.Lock()
		degraded = append(degraded, key)
		mu.Unlock()
	})
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	data := bytes.Repeat([]byte("signal"), 50)
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(degraded) != 0 {
		t.Fatalf("healthy coded Put reported degraded: %v", degraded)
	}
	mu.Unlock()
	faults[ids[0]].SetDown(true)
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded Get: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(degraded) == 0 {
		t.Fatal("reconstructing read never reported the chunk")
	}
}

// TestCodedRepair: repair re-encodes lost fragments from any k
// survivors onto fresh providers and rewrites the placement.
func TestCodedRepair(t *testing.T) {
	r, faults := codedRouter(t, 8, 0, 4, 2)
	key := chunk.Key{Blob: 9, Version: 1, Index: 0}
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 8192)
	rng.Read(data)
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	if outcome, copied, err := r.RepairChunk(key); outcome != RepairHealthy || copied != 0 || err != nil {
		t.Fatalf("healthy coded RepairChunk = %v/%d/%v", outcome, copied, err)
	}
	// Kill m = 2 fragment holders at the store level.
	faults[ids[1]].SetDown(true)
	faults[ids[4]].SetDown(true)
	if n := r.UnderReplicated(); n != 1 {
		t.Fatalf("UnderReplicated = %d, want 1", n)
	}
	outcome, copied, err := r.RepairChunk(key)
	if outcome != RepairRepaired || copied != 2 || err != nil {
		t.Fatalf("coded RepairChunk = %v/%d/%v, want repaired/2/nil", outcome, copied, err)
	}
	now, _ := r.Locate(key)
	if len(now) != 6 {
		t.Fatalf("post-repair placement %v, want 6 positions", now)
	}
	for _, id := range now {
		if id == ids[1] || id == ids[4] {
			t.Fatalf("placement %v still references a dead store", now)
		}
	}
	if live, want, _ := r.VerifyReplicas(key); live != 6 || want != 6 {
		t.Fatalf("VerifyReplicas after repair = %d/%d", live, want)
	}
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-repair Get mismatch (%v)", err)
	}
	// And the repaired fragments are real: lose two OTHER positions and
	// reconstruction still works, proving repair wrote position-correct
	// bytes rather than copies of something else.
	faults[now[0]].SetDown(true)
	faults[now[5]].SetDown(true)
	if got, err := r.Get(key, 0, int64(len(data))); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-repair degraded Get mismatch (%v)", err)
	}
	faults[now[0]].SetDown(false)
	faults[now[5]].SetDown(false)

	// Below k survivors the chunk is lost — repair must say so.
	for i := 0; i < 3; i++ {
		faults[now[i]].SetDown(true)
	}
	if outcome, _, err := r.RepairChunk(key); outcome != RepairLost || err == nil {
		t.Fatalf("RepairChunk below k = %v/%v, want lost/error", outcome, err)
	}
}

// TestCodedRepairPassDomainKill: a full Repair() pass after losing an
// entire failure domain heals every chunk back to full degree with the
// domain-spread invariant restored.
func TestCodedRepairPassDomainKill(t *testing.T) {
	// 12 providers in 6 domains of 2: rs-4+2 spreads one fragment per
	// domain; killing one domain costs every chunk exactly one fragment.
	// The kill is flag-level (the detector/operator has noticed), so the
	// spread audit measures against the 5 remaining live domains.
	mgr, _ := NewPoolInDomains(12, 6, iosim.CostModel{})
	r := NewRouter(mgr)
	if err := r.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	const chunks = 10
	rng := rand.New(rand.NewSource(5))
	payloads := make([][]byte, chunks)
	for i := range payloads {
		payloads[i] = make([]byte, 2048)
		rng.Read(payloads[i])
		if _, err := r.Put(chunk.Key{Blob: 1, Index: uint32(i)}, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Domain zone0 = providers 0 and 1.
	if err := mgr.SetDown(0, true); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SetDown(1, true); err != nil {
		t.Fatal(err)
	}
	st := r.Repair()
	if st.Scanned != chunks || st.Lost != 0 || st.Failed != 0 || st.Repaired != st.Degraded {
		t.Fatalf("domain-kill repair stats %+v", st)
	}
	if n := r.UnderReplicated(); n != 0 {
		t.Fatalf("UnderReplicated after repair = %d", n)
	}
	if v := r.SpreadAudit(); len(v) != 0 {
		t.Fatalf("SpreadAudit after repair: %v", v)
	}
	for i := range payloads {
		key := chunk.Key{Blob: 1, Index: uint32(i)}
		got, err := r.Get(key, 0, int64(len(payloads[i])))
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("chunk %d after domain-kill repair: %v", i, err)
		}
	}
	// Idempotence: a second pass finds nothing.
	if st := r.Repair(); st.Degraded != 0 || st.Copied != 0 {
		t.Fatalf("second repair pass not idempotent: %+v", st)
	}
}

// TestCodedGetFromHint: coded hints are positional, so GetFrom must
// serve from CURRENT placement and refresh the caller whenever the hint
// differs from it in any position or order.
func TestCodedGetFromHint(t *testing.T) {
	r, faults := codedRouter(t, 8, 0, 4, 2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	data := bytes.Repeat([]byte("hint"), 64)
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh hint: no refresh.
	got, fresh, err := r.GetFrom(ids, key, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetFrom: %v", err)
	}
	if fresh != nil {
		t.Fatalf("up-to-date hint refreshed to %v", fresh)
	}
	// Repair moves fragments; the old hint must be replaced with the
	// exact new placement (order matters for positional fragments).
	faults[ids[2]].SetDown(true)
	if outcome, _, err := r.RepairChunk(key); outcome != RepairRepaired || err != nil {
		t.Fatalf("repair: %v/%v", outcome, err)
	}
	want, _ := r.Locate(key)
	got, fresh, err = r.GetFrom(ids, key, 0, int64(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stale-hint GetFrom: %v", err)
	}
	if fmt.Sprint(fresh) != fmt.Sprint(want) {
		t.Fatalf("refreshed hint = %v, want placement %v", fresh, want)
	}
}

// TestCodedOpenReader: the streaming read path reconstructs too.
func TestCodedOpenReader(t *testing.T) {
	r, faults := codedRouter(t, 6, 0, 4, 2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 5000)
	rng.Read(data)
	ids, err := r.Put(key, data)
	if err != nil {
		t.Fatal(err)
	}
	check := func(off, length int64) {
		t.Helper()
		rc, _, err := r.OpenFrom(nil, key, off, length)
		if err != nil {
			t.Fatalf("OpenFrom(%d,%d): %v", off, length, err)
		}
		defer rc.Close()
		got, err := io.ReadAll(rc)
		if err != nil || !bytes.Equal(got, data[off:off+length]) {
			t.Fatalf("OpenFrom(%d,%d) mismatch (%v)", off, length, err)
		}
	}
	check(0, 5000)
	check(1234, 2000)
	faults[ids[1]].SetDown(true)
	faults[ids[5]].SetDown(true)
	check(0, 5000)
	check(1234, 2000)
}

// TestCodedModeExclusions: coding config is validated and the mode is
// all-or-nothing at the router level.
func TestCodedModeExclusions(t *testing.T) {
	m, _ := NewPool(6, iosim.CostModel{})
	r := NewRouter(m)
	if err := r.SetCoding(0, 2); err == nil {
		t.Fatal("SetCoding(0,2) must fail")
	}
	if err := r.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	if k, mm, on := r.Coding(); !on || k != 4 || mm != 2 {
		t.Fatalf("Coding = %d+%d,%v", k, mm, on)
	}
	if err := r.SetCoding(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, on := r.Coding(); on {
		t.Fatal("SetCoding(0,0) must disable coding")
	}
}

// TestPutStreamSizeBound is the regression test for the unchecked
// wire-declared size: at R>1 PutStream used to allocate size bytes
// before reading anything, so a forged 2 GiB header forced a 2 GiB
// allocation. Now the declared size is bounded by MaxChunkSize with a
// typed error BEFORE any allocation.
func TestPutStreamSizeBound(t *testing.T) {
	m, _ := NewPool(3, iosim.CostModel{})
	r := NewRouter(m)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}

	// A forged huge size must fail typed, not allocate-and-EOF.
	_, err := r.PutStream(key, 1<<31, bytes.NewReader(nil))
	if !errors.Is(err, ErrChunkTooLarge) {
		t.Fatalf("PutStream(2GiB) = %v, want ErrChunkTooLarge", err)
	}
	var typed *ChunkTooLargeError
	if !errors.As(err, &typed) || typed.Size != 1<<31 || typed.Max != DefaultMaxChunkSize {
		t.Fatalf("typed error = %+v", err)
	}
	if !strings.Contains(err.Error(), "max chunk size") {
		t.Fatalf("error text %q", err)
	}

	// Negative sizes are equally forged.
	if _, err := r.PutStream(key, -1, bytes.NewReader(nil)); !errors.Is(err, ErrChunkTooLarge) {
		t.Fatalf("PutStream(-1) = %v, want ErrChunkTooLarge", err)
	}

	// The bound is configurable and exact: size == max passes, max+1
	// fails. Applies to the R==1 zero-copy path too.
	r.SetMaxChunkSize(16)
	if _, err := r.PutStream(key, 17, bytes.NewReader(make([]byte, 17))); !errors.Is(err, ErrChunkTooLarge) {
		t.Fatalf("PutStream(max+1) = %v, want ErrChunkTooLarge", err)
	}
	if _, err := r.PutStream(key, 16, bytes.NewReader(make([]byte, 16))); err != nil {
		t.Fatalf("PutStream(max): %v", err)
	}
	r2 := NewRouter(m)
	r2.SetMaxChunkSize(8)
	if _, err := r2.PutStream(chunk.Key{Blob: 2}, 9, bytes.NewReader(make([]byte, 9))); !errors.Is(err, ErrChunkTooLarge) {
		t.Fatalf("R=1 PutStream(max+1) = %v, want ErrChunkTooLarge", err)
	}
	// SetMaxChunkSize(0) restores the default.
	r2.SetMaxChunkSize(0)
	if got := r2.MaxChunkSize(); got != DefaultMaxChunkSize {
		t.Fatalf("MaxChunkSize after reset = %d", got)
	}

	// Coded mode materializes the payload too — same bound.
	rc, _ := codedRouter(t, 6, 0, 4, 2)
	rc.SetMaxChunkSize(1024)
	if _, err := rc.PutStream(key, 4096, bytes.NewReader(make([]byte, 4096))); !errors.Is(err, ErrChunkTooLarge) {
		t.Fatalf("coded PutStream over max = %v, want ErrChunkTooLarge", err)
	}
	if _, err := rc.PutStream(key, 1024, bytes.NewReader(make([]byte, 1024))); err != nil {
		t.Fatalf("coded PutStream at max: %v", err)
	}
}

// TestCodedStorageOverhead: the point of the exercise — rs-4+2 stores
// ~1.5x the logical bytes where R=3 stores 3x.
func TestCodedStorageOverhead(t *testing.T) {
	logical := int64(0)
	stored := func(r *Router) int64 {
		var n int64
		for _, u := range r.Usage() {
			n += u.Bytes
		}
		return n
	}
	mgrC, _ := NewPool(6, iosim.CostModel{})
	rc := NewRouter(mgrC)
	if err := rc.SetCoding(4, 2); err != nil {
		t.Fatal(err)
	}
	mgrR, _ := NewPool(6, iosim.CostModel{})
	rr := NewRouter(mgrR)
	rr.SetReplicas(3)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 32; i++ {
		data := make([]byte, 4096+rng.Intn(4096))
		rng.Read(data)
		logical += int64(len(data))
		key := chunk.Key{Blob: 1, Index: uint32(i)}
		if _, err := rc.Put(key, data); err != nil {
			t.Fatal(err)
		}
		if _, err := rr.Put(key, data); err != nil {
			t.Fatal(err)
		}
	}
	codedX := float64(stored(rc)) / float64(logical)
	replX := float64(stored(rr)) / float64(logical)
	if codedX > 1.6 {
		t.Fatalf("coded overhead %.2fx, want <= 1.6x", codedX)
	}
	if replX < 2.9 {
		t.Fatalf("replicated overhead %.2fx, want ~3x", replX)
	}
}
