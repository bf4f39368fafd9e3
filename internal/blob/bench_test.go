package blob

import (
	"fmt"
	"testing"

	"repro/internal/extent"
)

// BenchmarkWriteList measures end-to-end unmetered write cost for
// varying region counts (ticket + chunk stores + metadata build +
// publication).
func BenchmarkWriteList(b *testing.B) {
	for _, regions := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("regions=%d", regions), func(b *testing.B) {
			blob, err := Create(testServices(), 1, segtreeGeometry(1<<26, 64<<10))
			if err != nil {
				b.Fatal(err)
			}
			var l extent.List
			for i := 0; i < regions; i++ {
				l = append(l, extent.Extent{Offset: int64(i) * 128 << 10, Length: 32 << 10})
			}
			buf := make([]byte, l.TotalLength())
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vec, _ := extent.NewVec(l, buf)
				if _, err := blob.WriteList(vec, WriteOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadList measures snapshot reads over a versioned blob.
func BenchmarkReadList(b *testing.B) {
	blob, err := Create(testServices(), 1, segtreeGeometry(1<<24, 64<<10))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4<<20)
	v, err := blob.Write(0, buf, WriteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	q := extent.List{{Offset: 0, Length: 4 << 20}}
	b.SetBytes(4 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blob.ReadList(v, q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReadList times warm list-reads of q from a fully written blob
// over in-process services: the blob layer's own cost, no wire.
func benchReadList(b *testing.B, capacity, page int64, q extent.List) {
	blob, err := Create(testServices(), 1, segtreeGeometry(capacity, page))
	if err != nil {
		b.Fatal(err)
	}
	v, err := blob.Write(0, make([]byte, capacity), WriteOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(q.TotalLength())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := blob.ReadList(v, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadListStrided is the checkpoint restore shape: 32 x 1 MiB
// at a 2 MiB pitch, page 1 MiB.
func BenchmarkReadListStrided(b *testing.B) {
	benchReadList(b, 64<<20, 1<<20, stridedQuery(32, 1<<20, 2<<20))
}

// BenchmarkReadListSubarray is the subarray re-read shape: 16 x 16 KiB
// at a 1 MiB pitch, page 256 KiB.
func BenchmarkReadListSubarray(b *testing.B) {
	benchReadList(b, 16<<20, 256<<10, stridedQuery(16, 16<<10, 1<<20))
}
