package chunk

import (
	"fmt"
	"math/rand"
	"testing"
)

// The RS layer benchmarks use only NewRSCode, Encode and Reconstruct, so
// this file drops onto an older commit unchanged for a parent/change
// pair. One op is one chunk; SetBytes is the chunk size. rs-4+2 is what
// coded placement runs, rs-8+2 a wider stripe of the same m, and rs-4+3
// a code whose generator no m = 2 change touches — the control.

var (
	rsBenchSizes = []int{64 << 10, 1 << 20}
	rsBenchCodes = [][2]int{{4, 2}, {8, 2}, {4, 3}}
)

func rsBenchPayload(size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	return data
}

func BenchmarkRSEncode(b *testing.B) {
	for _, km := range rsBenchCodes {
		code, err := NewRSCode(km[0], km[1])
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range rsBenchSizes {
			b.Run(fmt.Sprintf("rs%d+%d/%dKiB", km[0], km[1], size>>10), func(b *testing.B) {
				data := rsBenchPayload(size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for b.Loop() {
					code.Encode(data)
				}
			})
		}
	}
}

// BenchmarkRSReconstruct rebuilds what a degraded read (one data
// fragment gone) and a repair after a two-domain loss (one data, one
// parity) have to.
func BenchmarkRSReconstruct(b *testing.B) {
	for _, km := range rsBenchCodes {
		code, err := NewRSCode(km[0], km[1])
		if err != nil {
			b.Fatal(err)
		}
		for _, loss := range []struct {
			name string
			lost []int
		}{{"data", []int{0}}, {"data+parity", []int{1, km[0]}}} {
			for _, size := range rsBenchSizes {
				b.Run(fmt.Sprintf("rs%d+%d/%s/%dKiB", km[0], km[1], loss.name, size>>10), func(b *testing.B) {
					shards := code.Encode(rsBenchPayload(size))
					b.SetBytes(int64(size))
					b.ReportAllocs()
					for b.Loop() {
						for _, i := range loss.lost {
							shards[i] = nil
						}
						if err := code.Reconstruct(shards); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
