// Reed-Solomon erasure coding over GF(2^8) for chunk fragments. A
// chunk of S bytes is split into k data shards of ceil(S/k) bytes
// rounded up to a multiple of 8 (the tail zero-padded) and extended
// with m parity shards; any k of the k+m shards reconstruct the
// original bytes. The code is systematic — data shards hold the chunk
// bytes verbatim — so intact reads never pay a decode.
//
// The arithmetic is the XOR-only (bit-matrix) form of the code. A shard
// is read as 8 packets of len/8 bytes, and bit b of byte o of packets
// 0..7 together are one field element (packet t holds its bit t) — so a
// shard carries len/8·8 elements side by side rather than one per byte.
// Multiplication by a constant c is linear over GF(2): bit r of c·v is
// the XOR of the bits t of v for which bit r of c·2^t is set. A
// generator row therefore says, for each destination packet r, which
// source packets (j, t) XOR together into it — a packet row. One
// overwrite kernel (xorRows) evaluates packet rows: each destination
// packet is written once from its first two terms and then XORed with
// the rest, each a crypto/subtle.XORBytes over whole slices — no table
// lookup per byte, no pass over zeros. The cost of a row is its term
// count, which is why the generator is chosen for few ones (see
// RSCode). Pure Go, no dependencies.
package chunk

import (
	"crypto/subtle"
	"fmt"
	"math/bits"
	"slices"
)

// GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) and
// generator 2 — the field used by virtually every RS storage code.
var (
	gfExp [512]byte // exp table doubled so mul needs no mod
	gfLog [256]int  // log table; gfLog[0] unused
	// gfBits[c][r] has bit t set when bit r of c·2^t is: the packets t
	// of a source that feed packet r of c times that source.
	gfBits [256][8]byte
)

func init() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		gfExp[i] = x
		gfLog[x] = i
		// multiply x by the generator 2 in GF(2^8)
		if x&0x80 != 0 {
			x = (x << 1) ^ 0x1D
		} else {
			x <<= 1
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		for t := 0; t < 8; t++ {
			col := gfMul(byte(c), 1<<t)
			for r := range gfBits[c] {
				gfBits[c][r] |= col >> r & 1 << t
			}
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfInv(a byte) byte {
	if a == 0 {
		panic("chunk: GF(256) inverse of zero")
	}
	return gfExp[255-gfLog[a]]
}

// xorSlice is how much of each packet xorRows works on at a time: the
// destination and source slices of one window stay cache-resident
// while every row is written.
const xorSlice = 4 << 10

// A packetRow is one generator row in packet form: packetRow[r] lists,
// as j*8+t, the source packets (packet t of source shard j) whose XOR
// is packet r of the destination. The bit matrix of a nonzero element
// is invertible, so every list of a row with a nonzero coefficient —
// every parity row, every row of an inverse — has at least one term.
type packetRow [8][]int

// newPacketRow expands a generator row of field elements into its
// packet terms, all eight lists cut from one allocation.
func newPacketRow(row []byte) (pr packetRow) {
	n := 0
	for _, c := range row {
		n += ones(c)
	}
	terms := make([]int, 0, n)
	for r := range pr {
		from := len(terms)
		for j, c := range row {
			for ts := gfBits[c][r]; ts != 0; ts &= ts - 1 {
				terms = append(terms, j*8+bits.TrailingZeros8(ts))
			}
		}
		pr[r] = terms[from:len(terms):len(terms)]
	}
	return pr
}

// xorRows overwrites dsts[i] with Σ_j rows[i][j]·srcs[j] on shards in
// the packet layout (at least one destination; equal lengths, a
// multiple of 8; no destination aliases a source). It is the one place field arithmetic touches
// shard bytes: encode, data solve and parity re-encode differ only in
// the rows and the sources they pass. A destination packet's first two
// terms are one three-operand XOR (a copy when it has one term), so no
// destination is zeroed or read before it is written.
func xorRows(dsts [][]byte, rows []packetRow, srcs [][]byte) {
	ps := len(dsts[0]) / 8
	for lo := 0; lo < ps; lo += xorSlice {
		hi := min(lo+xorSlice, ps)
		packet := func(x int) []byte {
			off := x % 8 * ps
			return srcs[x/8][off+lo : off+hi]
		}
		for i, row := range rows {
			for r, terms := range row {
				d := dsts[i][r*ps+lo : r*ps+hi]
				if len(terms) == 1 {
					copy(d, packet(terms[0]))
					continue
				}
				subtle.XORBytes(d, packet(terms[0]), packet(terms[1]))
				for _, x := range terms[2:] {
					subtle.XORBytes(d, d, packet(x))
				}
			}
		}
	}
}

// RSCode is a systematic k+m Reed-Solomon code with generator matrix
// [I_k ; P]: data shard i is row i of the identity, parity shard i is
// row i of P. Any k of the k+m shards reconstruct exactly when every
// k×k submatrix of rows is invertible (the code is MDS).
//
// For m = 2, P is [1 … 1 ; a_1 … a_k] where a_1..a_k are the k nonzero
// field elements whose bit matrices hold the fewest ones, lightest
// first, ties broken by value ([1 2 142 4] for k = 4). That is MDS: a
// submatrix with no parity row is the identity; one with one parity
// row in place of data row j has that row's entry in column j as its
// determinant, and every entry is nonzero; one with both parity rows
// in place of data rows j and l reduces to the minor a_l ⊕ a_j, nonzero
// because the a's are distinct. The first parity shard is the plain
// XOR of the data shards (8 packet terms per coefficient, RAID-5's
// cost for the common single-loss rebuild), and the second costs 44
// terms for k = 4 where a Cauchy row costs 142 — rs-4+2's generator
// has 76 packet terms, not 174. There are 255 nonzero elements, so
// k ≤ 254, which k+m ≤ 256 already implies.
//
// For any other m, P is the m×k Cauchy matrix 1/((k+i) XOR j) with
// each column scaled so that its first row is all ones: every square
// submatrix of a Cauchy matrix is invertible and scaling a column by a
// nonzero constant keeps it so.
type RSCode struct {
	K, M   int
	parity [][]byte    // m rows × k cols of the generator's parity half
	rows   []packetRow // parity in packet form, what encoding evaluates
}

// NewRSCode builds a k data + m parity code. The Cauchy construction
// needs k+m distinct nonzero field elements of the form (k+i)^j, which
// bounds k+m at 256.
func NewRSCode(k, m int) (*RSCode, error) {
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("chunk: invalid RS code %d+%d (need k>=1, m>=1, k+m<=256)", k, m)
	}
	c := &RSCode{K: k, M: m, parity: make([][]byte, m)}
	for i := 0; i < m; i++ {
		c.parity[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			c.parity[i][j] = gfMul(gfInv(byte(k+i)^byte(j)), byte(k)^byte(j))
		}
	}
	if m == 2 {
		c.parity[1] = lightestElements(k)
	}
	for _, row := range c.parity {
		c.rows = append(c.rows, newPacketRow(row))
	}
	return c, nil
}

// lightestElements returns the k nonzero field elements with the
// fewest ones in their bit matrices, lightest first, ties by value.
func lightestElements(k int) []byte {
	els := make([]byte, 255)
	for i := range els {
		els[i] = byte(i + 1)
	}
	slices.SortStableFunc(els, func(a, b byte) int { return ones(a) - ones(b) })
	return els[:k:k]
}

// ones counts the ones in c's bit matrix: the packet terms multiplying
// by c costs.
func ones(c byte) (n int) {
	for _, ts := range gfBits[c] {
		n += bits.OnesCount8(ts)
	}
	return n
}

// ShardSize is the per-fragment size for a chunk of size bytes: the
// chunk is padded so all K shards are equal and a whole number of
// 8-packet rows long.
func (c *RSCode) ShardSize(size int64) int64 {
	if size <= 0 {
		return 0
	}
	return ((size+int64(c.K)-1)/int64(c.K) + 7) &^ 7
}

// Encode splits data into K shards (the tail zero-padded) and appends
// M parity shards; the returned slice has K+M entries of equal length.
// The data shards alias the input where possible; only the padded tail
// and the parity rows allocate.
func (c *RSCode) Encode(data []byte) [][]byte {
	ss := c.ShardSize(int64(len(data)))
	shards := make([][]byte, c.K+c.M)
	for i := 0; i < c.K; i++ {
		lo := min(int64(i)*ss, int64(len(data)))
		hi := min(lo+ss, int64(len(data)))
		if hi-lo == ss && ss > 0 {
			shards[i] = data[lo:hi]
			continue
		}
		shards[i] = make([]byte, ss) // the padded tail; never nil
		copy(shards[i], data[lo:hi])
	}
	for i := c.K; i < len(shards); i++ {
		shards[i] = make([]byte, ss)
	}
	xorRows(shards[c.K:], c.rows, shards[:c.K]) // every row in one pass over the data
	return shards
}

// survey checks a decode argument — K+M entries, the non-nil ones of one
// length that the packet layout divides, at least K of them — and
// returns that length and the positions of the first K present shards.
func (c *RSCode) survey(shards [][]byte) (ss int, have []int, err error) {
	if len(shards) != c.K+c.M {
		return 0, nil, fmt.Errorf("chunk: RS reconstruct wants %d shards, got %d", c.K+c.M, len(shards))
	}
	ss = -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if ss == -1 {
			ss = len(s)
		} else if len(s) != ss {
			return 0, nil, fmt.Errorf("chunk: RS shard %d has %d bytes, want %d", i, len(s), ss)
		}
		if len(have) < c.K {
			have = append(have, i)
		}
	}
	if len(have) < c.K {
		return 0, nil, fmt.Errorf("chunk: RS reconstruct needs %d shards, only %d present", c.K, len(have))
	}
	if ss%8 != 0 {
		return 0, nil, fmt.Errorf("chunk: RS shard length %d is not a multiple of 8", ss)
	}
	return ss, have, nil
}

// ReconstructData rebuilds data shards only, into buffers the caller
// supplies. shards is as for Reconstruct; fill has K entries, and for
// each i with shards[i] nil and fill[i] non-nil, data shard i is solved
// from the first K present shards, written over fill[i] (one shard
// long) and stored in shards[i]. Every other nil entry — a data shard
// nobody asked for, any parity shard — stays nil, and no byte outside
// the fill buffers is written.
func (c *RSCode) ReconstructData(shards, fill [][]byte) error {
	ss, have, err := c.survey(shards)
	if err != nil {
		return err
	}
	if len(fill) != c.K {
		return fmt.Errorf("chunk: RS reconstruct wants %d fill buffers, got %d", c.K, len(fill))
	}
	var todo []int
	for i, buf := range fill {
		if buf == nil || shards[i] != nil {
			continue
		}
		if len(buf) != ss {
			return fmt.Errorf("chunk: RS fill buffer %d has %d bytes, want %d", i, len(buf), ss)
		}
		todo = append(todo, i)
	}
	if len(todo) == 0 {
		return nil
	}
	// The k present shards relate to the data shards by the k×k
	// submatrix of their generator rows ([I_k ; P], see RSCode), which
	// the construction guarantees invertible; row i of the inverse
	// solves data shard i, written straight over its fill buffer.
	mat, srcs := make([][]byte, c.K), make([][]byte, c.K)
	for r, idx := range have {
		mat[r], srcs[r] = make([]byte, c.K), shards[idx]
		if idx < c.K {
			mat[r][idx] = 1
		} else {
			copy(mat[r], c.parity[idx-c.K])
		}
	}
	inv, err := gfInvertMatrix(mat)
	if err != nil {
		return err
	}
	dsts, rows := make([][]byte, len(todo)), make([]packetRow, len(todo))
	for n, i := range todo {
		dsts[n], rows[n], shards[i] = fill[i], newPacketRow(inv[i]), fill[i]
	}
	xorRows(dsts, rows, srcs)
	return nil
}

// Reconstruct fills in the nil entries of shards in place. shards must
// have K+M entries; non-nil entries must all share one length and hold
// the shard for their index. At least K entries must be present. On
// return every entry is non-nil and byte-identical to what Encode
// produced.
func (c *RSCode) Reconstruct(shards [][]byte) error {
	ss, _, err := c.survey(shards)
	if err != nil {
		return err
	}
	fill := make([][]byte, c.K)
	for i := range fill {
		if shards[i] == nil {
			fill[i] = make([]byte, ss)
		}
	}
	if err = c.ReconstructData(shards, fill); err != nil {
		return err
	}
	for i := range c.rows { // with all data shards in hand, a re-encode
		if shards[c.K+i] == nil {
			shards[c.K+i] = make([]byte, ss)
			xorRows(shards[c.K+i:][:1], c.rows[i:][:1], shards[:c.K])
		}
	}
	return nil
}

// Join concatenates the K data shards and trims padding to size bytes
// — the inverse of Encode for an original chunk of that size.
// Kept as the reference tests compare a decode against
// (TestRSCodeRoundTrip, TestRSCodeAllLossPatterns, FuzzRSReconstruct);
// reads assemble fragments without it.
func (c *RSCode) Join(shards [][]byte, size int64) []byte {
	out := make([]byte, 0, size)
	for i := 0; i < c.K && int64(len(out)) < size; i++ {
		out = append(out, shards[i]...)
	}
	if int64(len(out)) > size {
		out = out[:size]
	}
	return out
}

// gfInvertMatrix inverts a square matrix over GF(2^8) by Gauss-Jordan
// elimination. The input is consumed.
func gfInvertMatrix(mat [][]byte) ([][]byte, error) {
	n := len(mat)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if mat[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("chunk: RS submatrix singular at column %d", col)
		}
		mat[col], mat[pivot] = mat[pivot], mat[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := mat[col][col]; p != 1 {
			pi := gfInv(p)
			for j := 0; j < n; j++ {
				mat[col][j] = gfMul(mat[col][j], pi)
				inv[col][j] = gfMul(inv[col][j], pi)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col]
			for j := 0; j < n; j++ {
				mat[r][j] ^= gfMul(f, mat[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}
