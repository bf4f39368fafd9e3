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
// the XOR of the bits t of v for which bit r of c·2^t is set. On
// packets that is "packet r of dst ^= packet t of src" for at most 64
// (r, t) pairs, each a crypto/subtle.XORBytes over whole slices — no
// table lookup per byte. Pure Go, no dependencies.
package chunk

import (
	"crypto/subtle"
	"fmt"
)

// GF(2^8) with the primitive polynomial x^8+x^4+x^3+x^2+1 (0x11D) and
// generator 2 — the field used by virtually every RS storage code.
var (
	gfExp [512]byte // exp table doubled so mul needs no mod
	gfLog [256]int  // log table; gfLog[0] unused
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

// xorSlice is how much of each packet mulAdd works on at a time: the 8
// destination slices stay cache-resident while the sources stream by.
const xorSlice = 4 << 10

// mulAdd does dst ^= Σ row[j]·srcs[j] on shards in the packet layout
// (equal lengths, a multiple of 8). It is the one place field
// arithmetic touches shard bytes: encode, data solve and parity
// re-encode differ only in the row and the sources they pass.
func mulAdd(dst []byte, row []byte, srcs [][]byte) {
	ps := len(dst) / 8
	for lo := 0; lo < ps; lo += xorSlice {
		hi := min(lo+xorSlice, ps)
		for j, c := range row {
			for t := 0; t < 8; t++ {
				col := gfMul(c, 1<<t) // bit r set: packet t of src feeds packet r of dst
				s := srcs[j][t*ps+lo : t*ps+hi]
				for r := 0; col != 0; r, col = r+1, col>>1 {
					if col&1 != 0 {
						d := dst[r*ps+lo : r*ps+hi]
						subtle.XORBytes(d, d, s)
					}
				}
			}
		}
	}
}

// RSCode is a systematic k+m Reed-Solomon code. The generator matrix
// is [I_k ; C] where C is the m×k Cauchy matrix 1/((k+i) XOR j) with
// each column scaled so that its first row is all ones: every square
// submatrix of a Cauchy matrix is invertible and scaling a column by a
// nonzero constant keeps it so, hence any k of the k+m rows — any k
// surviving shards — suffice to reconstruct, and the first parity shard
// is the plain XOR of the data shards (8 XORs per coefficient, not ~32:
// the common single-loss rebuild through it costs what RAID-5's does).
type RSCode struct {
	K, M   int
	parity [][]byte // m rows × k cols of the generator's parity half
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
	return c, nil
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
	c.fillParity(shards, int(ss))
	return shards
}

// fillParity computes the nil parity shards from the K data shards.
func (c *RSCode) fillParity(shards [][]byte, ss int) {
	for i, row := range c.parity {
		if shards[c.K+i] == nil {
			shards[c.K+i] = make([]byte, ss)
			mulAdd(shards[c.K+i], row, shards[:c.K])
		}
	}
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
	// submatrix of their generator rows ([I_k ; C], see RSCode), which
	// the Cauchy construction guarantees invertible; row i of the
	// inverse solves data shard i.
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
	for _, i := range todo {
		clear(fill[i])
		mulAdd(fill[i], inv[i], srcs)
		shards[i] = fill[i]
	}
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
	if err = c.ReconstructData(shards, fill); err == nil {
		c.fillParity(shards, ss) // with all data shards in hand, a re-encode
	}
	return err
}

// Join concatenates the K data shards and trims padding to size bytes
// — the inverse of Encode for an original chunk of that size.
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
