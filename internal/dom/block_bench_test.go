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

// BenchmarkAnyDominatorInScalar is the row-compare equivalent of the block
// kernel: the same verdict over the same 256 points via per-point Compare,
// stopping at the first dominator as the baselines' filters do.
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

// BenchmarkLabelWord is one point's refine pass over the leaf columns of the
// `wide` build input's tree — 29 words at d = 8 — against a subspace set a
// third full, through each implementation of the sweep.
func BenchmarkLabelWord(b *testing.B) {
	const d, words = 8, 29
	rng := rand.New(rand.NewSource(8))
	full := mask.Full(d)
	med, quart, oct := make([]mask.Mask, words*64), make([]mask.Mask, words*64), make([]mask.Mask, words*64)
	for i := range med {
		med[i], quart[i], oct[i] = rng.Uint32()&full, rng.Uint32()&full, rng.Uint32()&full
	}
	seen := make([]uint64, (full-1)>>6+1)
	for i := range seen {
		seen[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
	}
	sel := RefineSel(rng.Uint32()&full, rng.Uint32()&full, rng.Uint32()&full, full)
	eachKernel(func(impl string) {
		b.Run(impl, func(b *testing.B) {
			var live uint64
			var xs [64]mask.Mask
			for i := 0; i < b.N; i++ {
				for w := 0; w < words; w++ {
					live |= LabelWord(med, quart, oct, w, &sel, seen, &xs)
				}
			}
			if live == 0 {
				b.Fatal("no lane was ever live")
			}
		})
	})
}
