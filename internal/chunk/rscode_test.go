package chunk

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

func TestRSCodeParams(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {200, 60}} {
		if _, err := NewRSCode(bad[0], bad[1]); err == nil {
			t.Errorf("NewRSCode(%d,%d): want error", bad[0], bad[1])
		}
	}
	if _, err := NewRSCode(4, 2); err != nil {
		t.Fatalf("NewRSCode(4,2): %v", err)
	}
	if _, err := NewRSCode(200, 56); err != nil {
		t.Fatalf("NewRSCode(200,56): %v", err)
	}
}

func TestRSCodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, km := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {6, 3}, {10, 4}} {
		c, err := NewRSCode(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 64, 1000, 4096, 65537} {
			data := make([]byte, size)
			rng.Read(data)
			shards := c.Encode(data)
			if len(shards) != c.K+c.M {
				t.Fatalf("%d+%d size %d: %d shards", c.K, c.M, size, len(shards))
			}
			ss := c.ShardSize(int64(size))
			for i, s := range shards {
				if int64(len(s)) != ss {
					t.Fatalf("%d+%d size %d: shard %d has %d bytes, want %d", c.K, c.M, size, i, len(s), ss)
				}
			}
			if got := c.Join(shards, int64(size)); !bytes.Equal(got, data) {
				t.Fatalf("%d+%d size %d: join mismatch with no losses", c.K, c.M, size)
			}
		}
	}
}

// TestRSCodeShardSize: a fragment is a whole number of 8-packet rows,
// and the padding that costs is bounded — under 8 bytes per fragment.
func TestRSCodeShardSize(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6, 10} {
		c, err := NewRSCode(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if c.ShardSize(0) != 0 || c.ShardSize(-5) != 0 {
			t.Fatalf("k=%d: ShardSize of nothing is not 0", k)
		}
		for _, n := range []int64{1, 7, 8, 9, 63, 64, 65, 1000, 4096, 65537, 1 << 20} {
			ss := c.ShardSize(n)
			if ss%8 != 0 || int64(k)*ss < n || int64(k)*ss-n >= 8*int64(k) {
				t.Fatalf("k=%d: ShardSize(%d) = %d", k, n, ss)
			}
		}
	}
	if c, _ := NewRSCode(4, 2); c.ShardSize(1<<20) != 256<<10 {
		t.Fatalf("a 1 MiB page no longer splits into 256 KiB fragments")
	}
}

// lossPatterns calls visit with every subset of {0..n-1} of at most max
// elements, as a membership mask.
func lossPatterns(n, max int, visit func(lost []bool)) {
	lost := make([]bool, n)
	var rec func(from, left int)
	rec = func(from, left int) {
		visit(lost)
		for i := from; i < n && left > 0; i++ {
			lost[i] = true
			rec(i+1, left-1)
			lost[i] = false
		}
	}
	rec(0, max)
}

// Every loss pattern of up to m shards must reconstruct byte-identical
// shards — data and parity alike — at sizes on both sides of the
// rounding to 8; and the data-only decode must rebuild exactly the data
// shards it is handed buffers for and leave parity alone.
func TestRSCodeAllLossPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	codes := [][2]int{{1, 1}, {2, 1}, {4, 2}, {6, 3}, {10, 4}}
	for _, k := range []int{1, 2, 3, 6, 8, 16} { // the lightest-row construction
		codes = append(codes, [2]int{k, 2})
	}
	for _, km := range codes {
		c, err := NewRSCode(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		n := c.K + c.M
		for _, size := range []int{1, 7, 9, 64, 1000, 65537} {
			data := make([]byte, size)
			rng.Read(data)
			want := c.Encode(data)
			lossPatterns(n, c.M, func(lost []bool) {
				shards, dataOnly := make([][]byte, n), make([][]byte, n)
				fill := make([][]byte, c.K)
				for i := range shards {
					if !lost[i] {
						shards[i] = bytes.Clone(want[i])
						dataOnly[i] = shards[i]
					} else if i < c.K && i%2 == 0 { // ask for every other lost data shard
						fill[i] = bytes.Repeat([]byte{0xEE}, len(want[i]))
					}
				}
				if err := c.Reconstruct(shards); err != nil {
					t.Fatalf("%d+%d size %d lose %v: %v", c.K, c.M, size, lost, err)
				}
				for i := range shards {
					if !bytes.Equal(shards[i], want[i]) {
						t.Fatalf("%d+%d size %d lose %v: shard %d differs after reconstruct", c.K, c.M, size, lost, i)
					}
				}
				if got := c.Join(shards, int64(size)); !bytes.Equal(got, data) {
					t.Fatalf("%d+%d size %d lose %v: joined data differs", c.K, c.M, size, lost)
				}
				if err := c.ReconstructData(dataOnly, fill); err != nil {
					t.Fatalf("%d+%d size %d lose %v: data-only: %v", c.K, c.M, size, lost, err)
				}
				for i := range dataOnly {
					switch asked := i < c.K && fill[i] != nil; {
					case lost[i] && !asked && dataOnly[i] != nil:
						t.Fatalf("%d+%d size %d lose %v: data-only decode filled shard %d unasked", c.K, c.M, size, lost, i)
					case (!lost[i] || asked) && !bytes.Equal(dataOnly[i], want[i]):
						t.Fatalf("%d+%d size %d lose %v: shard %d differs after data-only decode", c.K, c.M, size, lost, i)
					case asked && &dataOnly[i][0] != &fill[i][0]:
						t.Fatalf("%d+%d size %d lose %v: shard %d was not rebuilt in the caller's buffer", c.K, c.M, size, lost, i)
					}
				}
			})
		}
	}
}

// TestRSCodeGoldenFragments pins the fragments of one 64-byte chunk
// under rs-4+2, rs-4+3 and rs-2+1. Fragments are a stored format: a
// kernel or matrix change that alters them must say so here, not pass
// silently. rs-4+2's second parity row is the lightest-element row;
// the m ≠ 2 files hold the scaled Cauchy parity of every earlier build.
func TestRSCodeGoldenFragments(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	for _, km := range [][2]int{{4, 2}, {4, 3}, {2, 1}} {
		c, err := NewRSCode(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		for _, s := range c.Encode(data) {
			fmt.Fprintf(&got, "%x\n", s)
		}
		name := fmt.Sprintf("testdata/rs-%d+%d-64B.golden", c.K, c.M)
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Fatalf("rs-%d+%d fragments of the golden chunk changed (%s):\n%swant:\n%s", c.K, c.M, name, got.String(), want)
		}
	}
}

// TestRSCodeMatchesFieldArithmetic holds the packet kernel to the
// generator it claims to evaluate: element o of a shard is bit o%8 of
// byte o/8 of each of its 8 packets, and every parity element must be
// Σ_j parity[i][j]·(element of data shard j), computed with gfMul.
func TestRSCodeMatchesFieldArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	element := func(s []byte, o int) (v byte) {
		ps := len(s) / 8
		for b := 0; b < 8; b++ {
			v |= (s[b*ps+o/8] >> (o % 8) & 1) << b
		}
		return v
	}
	for _, km := range [][2]int{{1, 2}, {4, 2}, {5, 2}, {4, 3}, {2, 1}} {
		c, err := NewRSCode(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, 1000)
		rng.Read(data)
		shards := c.Encode(data)
		for o := 0; o < len(shards[0]); o++ {
			for i, row := range c.parity {
				var want byte
				for j, a := range row {
					want ^= gfMul(a, element(shards[j], o))
				}
				if got := element(shards[c.K+i], o); got != want {
					t.Fatalf("rs-%d+%d parity %d element %d = %#x, want %#x", c.K, c.M, i, o, got, want)
				}
			}
		}
	}
}

// TestRSCodeLightestRowIsMDS: for every k an rs-k+2 code admits, the
// second parity row holds k distinct nonzero elements and the first is
// all ones — the two facts the MDS argument in RSCode rests on.
func TestRSCodeLightestRowIsMDS(t *testing.T) {
	for k := 1; k <= 254; k++ {
		c, err := NewRSCode(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[byte]bool)
		for j, a := range c.parity[1] {
			if a == 0 || seen[a] {
				t.Fatalf("rs-%d+2: second parity row entry %d is %d (zero or repeated): %v", k, j, a, c.parity[1])
			}
			seen[a] = true
		}
		if len(c.parity[1]) != k || slices.ContainsFunc(c.parity[0], func(x byte) bool { return x != 1 }) {
			t.Fatalf("rs-%d+2: parity rows %v / %v", k, c.parity[0], c.parity[1])
		}
	}
	if c, _ := NewRSCode(4, 2); !slices.Equal(c.parity[1], []byte{1, 2, 142, 4}) {
		t.Fatalf("rs-4+2's second parity row is %v, want the lightest elements [1 2 142 4]", c.parity[1])
	}
}

// TestRSCodeEncodeCost pins what an rs-4+2 encode costs: 76 (r, t)
// packet terms over both parity rows — 32 for the all-ones row, 44 for
// the lightest row — where the scaled Cauchy rows took 174.
func TestRSCodeEncodeCost(t *testing.T) {
	cauchy := 0
	for j := 0; j < 4; j++ {
		cauchy += ones(1) + ones(gfMul(gfInv(byte(5^j)), byte(4^j)))
	}
	if cauchy != 174 {
		t.Errorf("rs-4+2's scaled Cauchy rows cost %d packet terms, want 174", cauchy)
	}
	for _, tc := range []struct{ k, m, terms int }{{4, 2, 76}, {8, 2, 64 + 111}, {2, 1, 16}} {
		c, err := NewRSCode(tc.k, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		n, sum := 0, 0
		for i, row := range c.rows {
			for _, terms := range row {
				n += len(terms)
			}
			for _, a := range c.parity[i] {
				sum += ones(a)
			}
		}
		if n != tc.terms || sum != n {
			t.Errorf("rs-%d+%d generator has %d packet terms (%d by its coefficients), want %d", tc.k, tc.m, n, sum, tc.terms)
		}
	}
}

// TestRSCodeEmptyChunk: a chunk of 0 bytes still encodes to k+m non-nil
// empty shards, and losing any m of them reconstructs.
func TestRSCodeEmptyChunk(t *testing.T) {
	for _, km := range [][2]int{{4, 2}, {4, 3}, {2, 1}} {
		c, err := NewRSCode(km[0], km[1])
		if err != nil {
			t.Fatal(err)
		}
		shards := c.Encode(nil)
		if len(shards) != c.K+c.M {
			t.Fatalf("rs-%d+%d: empty chunk encodes to %d shards", c.K, c.M, len(shards))
		}
		for i, s := range shards {
			if s == nil || len(s) != 0 {
				t.Fatalf("rs-%d+%d: empty chunk's shard %d is %v, want non-nil and empty", c.K, c.M, i, s)
			}
		}
		for i := 0; i < c.M; i++ { // data shard 0 and the last m-1 parity shards
			shards[(c.K+c.M-i)%(c.K+c.M)] = nil
		}
		dataOnly, fill := slices.Clone(shards), make([][]byte, c.K)
		fill[0] = []byte{}
		if err := c.ReconstructData(dataOnly, fill); err != nil || dataOnly[0] == nil {
			t.Fatalf("rs-%d+%d: data-only rebuild of an empty shard: %v, %v", c.K, c.M, dataOnly[0], err)
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatalf("rs-%d+%d: reconstruct empty chunk: %v", c.K, c.M, err)
		}
		for i, s := range shards {
			if s == nil || len(s) != 0 {
				t.Fatalf("rs-%d+%d: reconstructed empty shard %d is %v", c.K, c.M, i, s)
			}
		}
	}
}

// FuzzRSReconstruct drives both decode entry points with an arbitrary
// code (k ≤ 8, m ≤ 4), payload (≤ 4 KiB), loss subset and one of two
// malformations. Up to m losses rebuild every shard byte-identical to
// Encode's; more, a wrong shard count or unequal lengths are an error —
// never a panic, never a write outside the buffers handed in.
func FuzzRSReconstruct(f *testing.F) {
	f.Fuzz(func(t *testing.T, kk, mm uint8, data []byte, lossMask uint16, malform uint8) {
		c, err := NewRSCode(1+int(kk%8), 1+int(mm%4))
		if err != nil {
			t.Fatal(err)
		}
		data = data[:min(len(data), 4096)]
		n := c.K + c.M
		want := c.Encode(data)
		ss := len(want[0])
		shards := make([][]byte, n)
		fill := make([][]byte, c.K)
		guard := make([]byte, c.K*(ss+16)) // each fill buffer sits between two 8-byte canaries
		for i := range guard {
			guard[i] = 0xC5
		}
		nLost := 0
		for i := range shards {
			if lossMask>>i&1 == 0 {
				shards[i] = bytes.Clone(want[i])
				continue
			}
			nLost++
			if i < c.K {
				fill[i] = guard[i*(ss+16)+8:][:ss:ss]
			}
		}
		dataOnly := append([][]byte(nil), shards...)
		wantErr := nLost > c.M
		switch first := slices.IndexFunc(shards, func(s []byte) bool { return s != nil }); {
		case malform%3 == 1:
			shards, dataOnly, wantErr = shards[:n-1], dataOnly[:n-1], true
		case malform%3 == 2 && ss > 0 && n-nLost >= 2:
			shards[first] = shards[first][:ss-1]
			dataOnly[first], wantErr = shards[first], true
		}

		err = c.Reconstruct(shards)
		if (err != nil) != wantErr {
			t.Fatalf("rs-%d+%d size %d lost %b malform %d: Reconstruct err = %v, want error %v", c.K, c.M, len(data), lossMask, malform%3, err, wantErr)
		}
		if err == nil {
			for i := range shards {
				if !bytes.Equal(shards[i], want[i]) {
					t.Fatalf("rs-%d+%d size %d lost %b: shard %d differs after Reconstruct", c.K, c.M, len(data), lossMask, i)
				}
			}
			if got := c.Join(shards, int64(len(data))); !bytes.Equal(got, data) {
				t.Fatalf("rs-%d+%d size %d lost %b: Join differs from the input", c.K, c.M, len(data), lossMask)
			}
		}

		err = c.ReconstructData(dataOnly, fill)
		if (err != nil) != wantErr {
			t.Fatalf("rs-%d+%d size %d lost %b malform %d: ReconstructData err = %v, want error %v", c.K, c.M, len(data), lossMask, malform%3, err, wantErr)
		}
		for i := 0; err == nil && i < n; i++ {
			if i >= c.K && lossMask>>i&1 != 0 {
				if dataOnly[i] != nil {
					t.Fatalf("rs-%d+%d lost %b: ReconstructData filled parity slot %d", c.K, c.M, lossMask, i)
				}
			} else if !bytes.Equal(dataOnly[i], want[i]) {
				t.Fatalf("rs-%d+%d size %d lost %b: shard %d differs after ReconstructData", c.K, c.M, len(data), lossMask, i)
			}
		}
		for i := 0; i < c.K; i++ {
			lo, hi := guard[i*(ss+16):][:8], guard[i*(ss+16)+8+ss:][:8]
			if !bytes.Equal(lo, hi) || !bytes.Equal(lo, bytes.Repeat([]byte{0xC5}, 8)) {
				t.Fatalf("rs-%d+%d size %d lost %b: ReconstructData wrote outside fill buffer %d", c.K, c.M, len(data), lossMask, i)
			}
			if fill[i] == nil && !bytes.Equal(guard[i*(ss+16)+8:][:ss], bytes.Repeat([]byte{0xC5}, ss)) {
				t.Fatalf("rs-%d+%d size %d lost %b: ReconstructData wrote to a buffer it was not handed (%d)", c.K, c.M, len(data), lossMask, i)
			}
		}
	})
}

func TestRSCodeTooFewShards(t *testing.T) {
	c, _ := NewRSCode(4, 2)
	shards := c.Encode(bytes.Repeat([]byte{0xAB}, 512))
	shards[0], shards[2], shards[5] = nil, nil, nil
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruct with k-1 shards: want error")
	}
}

func TestRSCodeShardLengthMismatch(t *testing.T) {
	c, _ := NewRSCode(4, 2)
	shards := c.Encode(bytes.Repeat([]byte{1}, 512))
	shards[3] = shards[3][:10]
	if err := c.Reconstruct(shards); err == nil {
		t.Fatal("reconstruct with ragged shards: want error")
	}
}
