package segtree_test

import (
	"fmt"
	"testing"

	"repro/internal/extent"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/segtree"
)

// stores are the two seams the tree benchmarks run over: the in-process
// metadata store, driven call by call (unmetered: pure CPU + allocation),
// and the same store behind a framed client over TCP loopback, which
// takes each list operation as a batch and a resolve's walk as one
// request. The loopback form also returns the round trips its client has
// made so far (trains, from the client's bs_data_train_ops).
var stores = []struct {
	name string
	wrap func(b *testing.B, store *metadata.Store) (segtree.NodeStore, func() float64)
}{
	{"inprocess", func(_ *testing.B, store *metadata.Store) (segtree.NodeStore, func() float64) { return store, nil }},
	{"loopback", func(b *testing.B, store *metadata.Store) (segtree.NodeStore, func() float64) {
		c := loopback(b, store)
		reg := metrics.NewRegistry()
		c.SetMetrics(reg)
		return c, func() float64 { return reg.Snapshot()["bs_data_train_ops_count"] }
	}},
}

// BenchmarkBuild measures metadata construction for one write of n
// non-contiguous regions.
func BenchmarkBuild(b *testing.B) {
	for _, st := range stores {
		for _, regions := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/regions=%d", st.name, regions), func(b *testing.B) {
				h := newHarness(b, segtree.Geometry{Capacity: 1 << 24, Page: 64 << 10})
				h.tree.Store, _ = st.wrap(b, h.tree.Store.(*metadata.Store))
				var l extent.List
				for i := 0; i < regions; i++ {
					l = append(l, extent.Extent{Offset: int64(i) * 128 << 10, Length: 64 << 10})
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tk, err := h.mgr.AssignTicket(h.blob, l)
					if err != nil {
						b.Fatal(err)
					}
					placed := h.place(tk.Version, l, byte(i))
					root, err := h.tree.Build(tk.Version, placed, tk.Borrows)
					if err != nil {
						b.Fatal(err)
					}
					if err := h.mgr.Complete(h.blob, tk.Version, root); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkResolve measures read-path metadata resolution over a
// deeply versioned blob. Over loopback it reports wire-reqs/op: the
// round trips of one resolve — one, the walk; tree depth plus chain links
// when the tree was fetched level by level.
func BenchmarkResolve(b *testing.B) {
	for _, st := range stores {
		b.Run(st.name, func(b *testing.B) {
			h := newHarness(b, segtree.Geometry{Capacity: 1 << 22, Page: 16 << 10})
			// Create 64 versions of partially overlapping writes.
			for v := 0; v < 64; v++ {
				l := extent.List{{Offset: int64(v%8) * 256 << 10, Length: 512 << 10}}
				buf := make([]byte, l.TotalLength())
				vec, _ := extent.NewVec(l, buf)
				h.write(vec)
			}
			var trips func() float64
			h.tree.Store, trips = st.wrap(b, h.tree.Store.(*metadata.Store))
			info, err := h.mgr.LatestPublished(h.blob)
			if err != nil {
				b.Fatal(err)
			}
			query := extent.List{{Offset: 0, Length: 1 << 22}}
			runCounted(b, trips, func() error {
				_, _, err := h.tree.Resolve(info.Root, query)
				return err
			})
		})
	}
}

// BenchmarkDiff measures snapshot diffing between adjacent versions: a
// whole-blob write, then a 32 KiB one. Over loopback it reports
// wire-reqs/op, the round trips of one comparison.
func BenchmarkDiff(b *testing.B) {
	for _, st := range stores {
		b.Run(st.name, func(b *testing.B) {
			h := newHarness(b, segtree.Geometry{Capacity: 1 << 22, Page: 16 << 10})
			full := extent.List{{Offset: 0, Length: 1 << 22}}
			vec, _ := extent.NewVec(full, make([]byte, full.TotalLength()))
			h.write(vec)
			small := extent.List{{Offset: 1 << 20, Length: 32 << 10}}
			svec, _ := extent.NewVec(small, make([]byte, small.TotalLength()))
			h.write(svec)
			i1, _ := h.mgr.Snapshot(h.blob, 1)
			i2, _ := h.mgr.Snapshot(h.blob, 2)
			var trips func() float64
			h.tree.Store, trips = st.wrap(b, h.tree.Store.(*metadata.Store))
			runCounted(b, trips, func() error {
				_, err := h.tree.Diff(i1.Root, i2.Root)
				return err
			})
		})
	}
}

// BenchmarkExclusiveChunks measures the garbage collector's question for
// one dropped version: 16 paged writes of 512 KiB at (v mod 8) x 256 KiB
// into a 4 MiB blob of 16 KiB pages, then v1 dropped against v2..v16.
// Over loopback it reports wire-reqs/op, the round trips of one answer.
func BenchmarkExclusiveChunks(b *testing.B) {
	for _, st := range stores {
		b.Run(st.name, func(b *testing.B) {
			h := newHarness(b, segtree.Geometry{Capacity: 1 << 22, Page: 16 << 10})
			for v := 0; v < 16; v++ {
				l := extent.List{{Offset: int64(v%8) * 256 << 10, Length: 512 << 10}}
				vec, _ := extent.NewVec(l, make([]byte, l.TotalLength()))
				h.writePaged(vec)
			}
			drop := h.root(1)
			var keep []segtree.NodeKey
			for v := uint64(2); v <= 16; v++ {
				keep = append(keep, h.root(v))
			}
			var trips func() float64
			h.tree.Store, trips = st.wrap(b, h.tree.Store.(*metadata.Store))
			runCounted(b, trips, func() error {
				_, err := h.tree.ExclusiveChunks(drop, keep)
				return err
			})
		})
	}
}

// runCounted times b.N calls of op and, when trips counts round trips,
// reports them per call as wire-reqs/op.
func runCounted(b *testing.B, trips func() float64, op func() error) {
	var before float64
	if trips != nil {
		before = trips()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if trips != nil {
		b.ReportMetric((trips()-before)/float64(b.N), "wire-reqs/op")
	}
}
