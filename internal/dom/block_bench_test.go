package dom

import (
	"fmt"
	"math/rand"
	"testing"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// benchBlock builds one full 256-lane block of uniform points in [0,1)^d
// plus a median-ish query, the acceptance-criteria shape (d ∈ {4,8}, n=256).
func benchBlock(d int) (*data.Block, []float32, [][]float32) {
	rng := rand.New(rand.NewSource(int64(d)))
	rows := make([][]float32, 256)
	for i := range rows {
		p := make([]float32, d)
		for j := range p {
			p[j] = rng.Float32()
		}
		rows[i] = p
	}
	bs := data.NewBlockSet(d, 256)
	dims := make([]int, d)
	for j := range dims {
		dims[j] = j
	}
	for i, p := range rows {
		bs.Append(p, int32(i), data.SumOver(p, dims))
	}
	pq := make([]float32, d)
	for j := range pq {
		pq[j] = 0.5
	}
	return bs.Blocks[0], pq, rows
}

// BenchmarkAnyDominatorIn measures the filter direction (does any lane
// dominate the query) with its word-level early exit.
func BenchmarkAnyDominatorIn(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			blk, pq, _ := benchBlock(d)
			var tally KernelTally
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AnyDominatorIn(blk, pq, false, &tally)
			}
		})
	}
}

// BenchmarkAnyDominatorInScalar is the scalar-loop equivalent the block
// kernel is gated against: the same verdict over the same 256 points via
// per-point Compare, stopping at the first dominator as the kernel's callers'
// scalar forms do.
func BenchmarkAnyDominatorInScalar(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			_, pq, rows := benchBlock(d)
			full := mask.Full(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range rows {
					if RelDominates(Compare(q, pq), full) {
						break
					}
				}
			}
		})
	}
}

// BenchmarkCompareBlock measures the MDMC refine shape: full Rel masks for
// a 64-lane leaf chunk against one point.
func BenchmarkCompareBlock(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			blk, pq, _ := benchBlock(d)
			out := make([]Rel, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CompareBlock(blk.Cols, 0, 64, pq, out)
			}
		})
	}
}

// BenchmarkCompareBlockScalar is CompareBlock's per-point reference.
func BenchmarkCompareBlockScalar(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			_, pq, rows := benchBlock(d)
			out := make([]Rel, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lane := 0; lane < 64; lane++ {
					out[lane] = Compare(rows[lane], pq)
				}
			}
		})
	}
}
