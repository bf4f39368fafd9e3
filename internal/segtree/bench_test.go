package segtree_test

import (
	"fmt"
	"testing"

	"repro/internal/extent"
	"repro/internal/metadata"
	"repro/internal/remote"
	"repro/internal/segtree"
)

// stores are the two seams the tree benchmarks run over: the in-process
// metadata store, driven call by call (unmetered: pure CPU + allocation),
// and the same store behind a framed client over TCP loopback, which
// takes each list operation as a batch.
var stores = []struct {
	name string
	wrap func(b *testing.B, store *metadata.Store) segtree.NodeStore
}{
	{"inprocess", func(_ *testing.B, store *metadata.Store) segtree.NodeStore { return store }},
	{"loopback", func(b *testing.B, store *metadata.Store) segtree.NodeStore {
		node, err := remote.Listen("127.0.0.1:0", remote.Roles{Meta: store})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { node.Close() })
		c, err := remote.DialFramed(remote.Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}},
}

// BenchmarkBuild measures metadata construction for one write of n
// non-contiguous regions.
func BenchmarkBuild(b *testing.B) {
	for _, st := range stores {
		for _, regions := range []int{8, 64} {
			b.Run(fmt.Sprintf("%s/regions=%d", st.name, regions), func(b *testing.B) {
				h := newHarness(b, segtree.Geometry{Capacity: 1 << 24, Page: 64 << 10})
				h.tree.Store = st.wrap(b, h.tree.Store.(*metadata.Store))
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
// deeply versioned blob.
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
			h.tree.Store = st.wrap(b, h.tree.Store.(*metadata.Store))
			info, err := h.mgr.LatestPublished(h.blob)
			if err != nil {
				b.Fatal(err)
			}
			query := extent.List{{Offset: 0, Length: 1 << 22}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := h.tree.Resolve(info.Root, query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiff measures snapshot diffing between adjacent versions.
func BenchmarkDiff(b *testing.B) {
	h := newHarness(b, segtree.Geometry{Capacity: 1 << 22, Page: 16 << 10})
	full := extent.List{{Offset: 0, Length: 1 << 22}}
	buf := make([]byte, full.TotalLength())
	vec, _ := extent.NewVec(full, buf)
	h.write(vec)
	small := extent.List{{Offset: 1 << 20, Length: 32 << 10}}
	sbuf := make([]byte, small.TotalLength())
	svec, _ := extent.NewVec(small, sbuf)
	h.write(svec)
	i1, _ := h.mgr.Snapshot(h.blob, 1)
	i2, _ := h.mgr.Snapshot(h.blob, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.tree.Diff(i1.Root, i2.Root); err != nil {
			b.Fatal(err)
		}
	}
}
