// Package workload generates the deterministic access patterns used by
// the paper's evaluation: the dense-overlap non-contiguous pattern of
// the scalability experiment, the MPI-tile-IO tile pattern, the
// ghost-cell halo pattern of the motivating applications, and the
// skewed hot/cold read pattern of the read-tier experiment. All
// generators are pure functions of their spec (pickers of their spec
// and seed), so every experiment is reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/datatype"
	"repro/internal/extent"
)

// OverlapSpec describes the synthetic Experiment-1 pattern: every
// client writes Regions non-contiguous regions of RegionSize bytes;
// adjacent clients' regions overlap by OverlapFraction of a region.
//
// Layout: the file is divided into Regions stripes; within stripe i,
// client w's region starts at i*stripeLen + w*shift with
// shift = RegionSize*(1-OverlapFraction). OverlapFraction 1 makes all
// clients write identical extent lists (total overlap, the paper's
// "extreme case"); 0 makes them disjoint.
type OverlapSpec struct {
	Clients         int
	Regions         int
	RegionSize      int64
	OverlapFraction float64
}

// Validate checks the spec.
func (s OverlapSpec) Validate() error {
	if s.Clients < 1 || s.Regions < 1 || s.RegionSize < 1 {
		return fmt.Errorf("workload: overlap spec needs positive clients/regions/size, got %+v", s)
	}
	if s.OverlapFraction < 0 || s.OverlapFraction > 1 {
		return fmt.Errorf("workload: overlap fraction %v out of [0,1]", s.OverlapFraction)
	}
	return nil
}

// shift is the per-client offset within a stripe.
func (s OverlapSpec) shift() int64 {
	sh := int64(float64(s.RegionSize) * (1 - s.OverlapFraction))
	if s.OverlapFraction < 1 && sh == 0 {
		sh = 1 // keep distinct clients distinct unless fully overlapped
	}
	return sh
}

// stripeLen is the file distance between consecutive region slots.
func (s OverlapSpec) stripeLen() int64 {
	return int64(s.Clients)*s.shift() + s.RegionSize
}

// ExtentsFor returns client w's extent list.
func (s OverlapSpec) ExtentsFor(client int) extent.List {
	out := make(extent.List, 0, s.Regions)
	for i := 0; i < s.Regions; i++ {
		off := int64(i)*s.stripeLen() + int64(client)*s.shift()
		out = append(out, extent.Extent{Offset: off, Length: s.RegionSize})
	}
	return out
}

// BytesPerClient is the payload size of one client's write call.
func (s OverlapSpec) BytesPerClient() int64 {
	return int64(s.Regions) * s.RegionSize
}

// FileSpan is the total byte range the pattern touches.
func (s OverlapSpec) FileSpan() int64 {
	return int64(s.Regions-1)*s.stripeLen() + int64(s.Clients-1)*s.shift() + s.RegionSize
}

// HotColdSpec describes the skewed read pattern of the read-tier
// experiment: a keyspace of Chunks chunk indices where the front
// HotFraction of the keyspace (the hot set) receives HotProb of all
// picks and the remaining cold tail shares the rest — the classic
// 90/10 shape of visualization readers re-fetching the frame they are
// rendering while occasionally paging history.
type HotColdSpec struct {
	// Chunks is the keyspace size: picks are chunk indices in
	// [0, Chunks).
	Chunks int
	// HotFraction is the fraction of the keyspace that is hot
	// (rounded up to at least one chunk).
	HotFraction float64
	// HotProb is the probability a pick lands in the hot set.
	HotProb float64
}

// Validate checks the spec.
func (s HotColdSpec) Validate() error {
	if s.Chunks < 1 {
		return fmt.Errorf("workload: hot/cold spec needs a positive keyspace, got %+v", s)
	}
	if s.HotFraction <= 0 || s.HotFraction > 1 {
		return fmt.Errorf("workload: hot fraction %v out of (0,1]", s.HotFraction)
	}
	if s.HotProb < 0 || s.HotProb > 1 {
		return fmt.Errorf("workload: hot probability %v out of [0,1]", s.HotProb)
	}
	return nil
}

// HotChunks is the hot-set size in chunks (at least one). A fractional
// boundary rounds up, matching the HotFraction doc: 15 chunks at 0.1
// give a 2-chunk hot set, not 1.
func (s HotColdSpec) HotChunks() int {
	hot := int(math.Ceil(float64(s.Chunks) * s.HotFraction))
	if hot < 1 {
		hot = 1
	}
	if hot > s.Chunks {
		hot = s.Chunks
	}
	return hot
}

// Picker returns a deterministic chunk-index generator seeded per
// reader: equal (spec, seed) pairs produce equal pick sequences, so a
// measured hit rate replays exactly.
func (s HotColdSpec) Picker(seed int64) func() int {
	rng := rand.New(rand.NewSource(seed))
	hot := s.HotChunks()
	cold := s.Chunks - hot
	return func() int {
		if cold == 0 || rng.Float64() < s.HotProb {
			return rng.Intn(hot)
		}
		return hot + rng.Intn(cold)
	}
}

// TileSpec describes the MPI-tile-IO pattern: a TilesX × TilesY grid
// of tiles, each TileX × TileY elements of ElementSize bytes, where
// adjacent tiles share OverlapX columns / OverlapY rows — the ghost
// regions that make the concurrent writes overlap.
type TileSpec struct {
	TilesX, TilesY     int
	TileX, TileY       int
	ElementSize        int64
	OverlapX, OverlapY int
}

// Validate checks the spec.
func (s TileSpec) Validate() error {
	if s.TilesX < 1 || s.TilesY < 1 || s.TileX < 1 || s.TileY < 1 || s.ElementSize < 1 {
		return fmt.Errorf("workload: tile spec needs positive dims, got %+v", s)
	}
	if s.OverlapX < 0 || s.OverlapX >= s.TileX || s.OverlapY < 0 || s.OverlapY >= s.TileY {
		return fmt.Errorf("workload: overlap (%d,%d) must be within tile (%d,%d)",
			s.OverlapX, s.OverlapY, s.TileX, s.TileY)
	}
	return nil
}

// Ranks is the number of processes the pattern needs.
func (s TileSpec) Ranks() int { return s.TilesX * s.TilesY }

// ArrayDims returns the global array size in elements (width, height).
func (s TileSpec) ArrayDims() (w, h int) {
	w = s.TilesX*(s.TileX-s.OverlapX) + s.OverlapX
	h = s.TilesY*(s.TileY-s.OverlapY) + s.OverlapY
	return w, h
}

// TileOrigin returns the element coordinates of rank's tile origin.
func (s TileSpec) TileOrigin(rank int) (x, y int) {
	tx := rank % s.TilesX
	ty := rank / s.TilesX
	return tx * (s.TileX - s.OverlapX), ty * (s.TileY - s.OverlapY)
}

// Subarray returns the MPI subarray datatype describing rank's tile in
// the global array, usable directly as an MPI-I/O filetype.
func (s TileSpec) Subarray(rank int) datatype.Subarray {
	w, h := s.ArrayDims()
	x, y := s.TileOrigin(rank)
	return datatype.Subarray{
		Sizes:    []int{h, w},
		Subsizes: []int{s.TileY, s.TileX},
		Starts:   []int{y, x},
		Elem:     datatype.Elementary{Width: s.ElementSize},
	}
}

// ExtentsFor returns rank's file extent list (one extent per tile row,
// merged where rows happen to be contiguous).
// Kept for tests of two packages: the workload tests and
// TestMPIIOTileOverRPC in internal/integration.
func (s TileSpec) ExtentsFor(rank int) extent.List {
	return s.Subarray(rank).Flatten()
}

// BytesPerRank is the payload of one tile write.
func (s TileSpec) BytesPerRank() int64 {
	return int64(s.TileX) * int64(s.TileY) * s.ElementSize
}

// FileBytes is the size of the global array in bytes.
func (s TileSpec) FileBytes() int64 {
	w, h := s.ArrayDims()
	return int64(w) * int64(h) * s.ElementSize
}

// HaloSpec describes the ghost-cell pattern of domain-decomposition
// simulations: a PX × PY process grid over a global 2D domain; each
// process owns a CoreX × CoreY block and writes it *including* a halo
// of Halo cells on every side, so neighbouring writes overlap by
// 2*Halo cells.
type HaloSpec struct {
	PX, PY       int
	CoreX, CoreY int
	Halo         int
	ElementSize  int64
}

// Validate checks the spec.
func (s HaloSpec) Validate() error {
	if s.PX < 1 || s.PY < 1 || s.CoreX < 1 || s.CoreY < 1 || s.ElementSize < 1 {
		return fmt.Errorf("workload: halo spec needs positive dims, got %+v", s)
	}
	if s.Halo < 0 || s.Halo > s.CoreX || s.Halo > s.CoreY {
		return fmt.Errorf("workload: halo %d larger than core (%d,%d)", s.Halo, s.CoreX, s.CoreY)
	}
	return nil
}

// Ranks is the number of processes.
func (s HaloSpec) Ranks() int { return s.PX * s.PY }

// DomainDims returns the global domain in elements.
func (s HaloSpec) DomainDims() (w, h int) {
	return s.PX * s.CoreX, s.PY * s.CoreY
}

// Block returns rank's written block in element coordinates
// (x, y, width, height), clipped to the domain.
func (s HaloSpec) Block(rank int) (x, y, w, h int) {
	px := rank % s.PX
	py := rank / s.PX
	dw, dh := s.DomainDims()
	x0 := px*s.CoreX - s.Halo
	y0 := py*s.CoreY - s.Halo
	x1 := (px+1)*s.CoreX + s.Halo
	y1 := (py+1)*s.CoreY + s.Halo
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > dw {
		x1 = dw
	}
	if y1 > dh {
		y1 = dh
	}
	return x0, y0, x1 - x0, y1 - y0
}

// Subarray returns the datatype for rank's halo-extended block.
func (s HaloSpec) Subarray(rank int) datatype.Subarray {
	dw, dh := s.DomainDims()
	x, y, w, h := s.Block(rank)
	return datatype.Subarray{
		Sizes:    []int{dh, dw},
		Subsizes: []int{h, w},
		Starts:   []int{y, x},
		Elem:     datatype.Elementary{Width: s.ElementSize},
	}
}

// ExtentsFor returns rank's file extent list.
func (s HaloSpec) ExtentsFor(rank int) extent.List {
	return s.Subarray(rank).Flatten()
}

// BytesPerRank is the payload of rank's write.
func (s HaloSpec) BytesPerRank(rank int) int64 {
	_, _, w, h := s.Block(rank)
	return int64(w) * int64(h) * s.ElementSize
}

// CheckpointSpec describes the N-1 strided checkpoint pattern of
// defensive-I/O applications: every one of Ranks processes dumps
// Segments segments of SegmentSize bytes into one shared file, with
// the segments of all ranks interleaved round-robin — segment s of
// rank r lands at offset (s*Ranks + r) * SegmentSize. Each epoch
// rewrites the same extents, so consecutive checkpoints contend on
// the same chunks and old epochs become garbage the moment retention
// drops them.
type CheckpointSpec struct {
	// Ranks is the number of writer processes sharing the file.
	Ranks int
	// Segments is the number of strided segments each rank writes per
	// checkpoint epoch.
	Segments int
	// SegmentSize is the bytes per segment.
	SegmentSize int64
}

// Validate checks the spec.
func (s CheckpointSpec) Validate() error {
	if s.Ranks < 1 || s.Segments < 1 || s.SegmentSize < 1 {
		return fmt.Errorf("workload: checkpoint spec needs positive ranks/segments/size, got %+v", s)
	}
	return nil
}

// ExtentsFor returns rank's strided extent list for one epoch. The
// lists of distinct ranks are disjoint and interleave exactly; the
// same rank writes the same extents every epoch.
func (s CheckpointSpec) ExtentsFor(rank int) extent.List {
	out := make(extent.List, 0, s.Segments)
	for seg := 0; seg < s.Segments; seg++ {
		off := (int64(seg)*int64(s.Ranks) + int64(rank)) * s.SegmentSize
		out = append(out, extent.Extent{Offset: off, Length: s.SegmentSize})
	}
	return out
}

// BytesPerRank is the payload of one rank's checkpoint write.
func (s CheckpointSpec) BytesPerRank() int64 {
	return int64(s.Segments) * s.SegmentSize
}

// FileSpan is the shared file size: all ranks' segments tile it with
// no holes.
func (s CheckpointSpec) FileSpan() int64 {
	return int64(s.Ranks) * int64(s.Segments) * s.SegmentSize
}
