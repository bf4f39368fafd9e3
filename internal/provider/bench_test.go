package provider_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/provider"
)

// The router's layer benchmarks: one chunk put and one whole-chunk read
// through provider.Router per iteration, over the placements the
// wall-clock workloads run (R=1, R=3 across 3 domains, rs-4+2 across 6,
// and — reads only — rs-4+2 with one of the 6 domains flagged down once
// the chunks are stored, as coded_degraded_restore reads), the two ways
// bytes enter and leave (a slice, a stream) and the two chunk sizes of
// tile_atomic and checkpoint_restore. mem:// stores under a zero cost
// model, so what is timed is the router: allocation, fan-out, quorum,
// placement, the replica walk, encode, rebuild. Exported API only.

type routerCell struct {
	name               string
	providers, domains int
	replicas, k, m     int
	down               int // providers 0..down-1 are flagged down before reading
}

var routerCells = []routerCell{
	{name: "R1", providers: 4, replicas: 1},
	{name: "R3", providers: 6, domains: 3, replicas: 3},
	{name: "rs4+2", providers: 12, domains: 6, k: 4, m: 2},
	{name: "rs4+2-degraded", providers: 12, domains: 6, k: 4, m: 2, down: 2}, // all of zone0
}

var routerSizes = []int{16 << 10, 1 << 20}

func (c routerCell) router(tb testing.TB) *provider.Router {
	tb.Helper()
	mgr, _, err := provider.NewURLPoolInDomains("mem://", c.providers, c.domains, iosim.CostModel{}, false)
	if err != nil {
		tb.Fatal(err)
	}
	r := provider.NewRouter(mgr)
	r.SetReplicas(c.replicas)
	if err := r.SetCoding(c.k, c.m); err != nil {
		tb.Fatal(err)
	}
	return r
}

// forRouterCells runs fn once per placement x transport x size.
func forRouterCells(b *testing.B, fn func(b *testing.B, c routerCell, r *provider.Router, stream bool, payload []byte)) {
	for _, c := range routerCells {
		for _, how := range []string{"bytes", "stream"} {
			for _, size := range routerSizes {
				b.Run(fmt.Sprintf("%s/%s/%dKiB", c.name, how, size>>10), func(b *testing.B) {
					payload := bytes.Repeat([]byte{0xA5}, size)
					b.SetBytes(int64(size))
					b.ReportAllocs()
					fn(b, c, c.router(b), how == "stream", payload)
				})
			}
		}
	}
}

func BenchmarkRouterPut(b *testing.B) {
	forRouterCells(b, func(b *testing.B, c routerCell, r *provider.Router, stream bool, payload []byte) {
		if c.down > 0 {
			b.Skip("a read cell")
		}
		// Chunks are deleted again every putBatch puts, off the clock, so
		// the stores hold a few MiB however long the benchmark runs.
		const putBatch = 16
		src := bytes.NewReader(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}
			var err error
			if stream {
				src.Reset(payload)
				_, err = r.PutStream(key, int64(len(payload)), src)
			} else {
				_, err = r.Put(key, payload)
			}
			if err != nil {
				b.Fatal(err)
			}
			if i%putBatch == putBatch-1 {
				b.StopTimer()
				for j := i - putBatch + 1; j <= i; j++ {
					key.Index = uint32(j)
					if _, _, err := r.DeleteReplicas(key); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		}
	})
}

func BenchmarkRouterRead(b *testing.B) {
	forRouterCells(b, func(b *testing.B, c routerCell, r *provider.Router, stream bool, payload []byte) {
		const chunks = 16
		size := int64(len(payload))
		hints := make([][]provider.ID, chunks)
		for i := range hints {
			ids, err := r.Put(chunk.Key{Blob: 1, Version: 1, Index: uint32(i)}, payload)
			if err != nil {
				b.Fatal(err)
			}
			hints[i] = ids
		}
		for id := 0; id < c.down; id++ {
			if err := r.SetDown(provider.ID(id), true); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := chunk.Key{Blob: 1, Version: 1, Index: uint32(i % chunks)}
			var n int64
			if stream {
				rc, _, err := r.OpenFrom(hints[i%chunks], key, 0, size)
				if err != nil {
					b.Fatal(err)
				}
				n, err = io.Copy(io.Discard, rc)
				rc.Close()
				if err != nil {
					b.Fatal(err)
				}
			} else {
				data, _, err := r.GetFrom(hints[i%chunks], key, 0, size)
				if err != nil {
					b.Fatal(err)
				}
				n = int64(len(data))
			}
			if n != size {
				b.Fatalf("read %d of %d bytes", n, size)
			}
		}
	})
}
