package skyline

import (
	"fmt"
	"math/rand"
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// benchFilterDataset builds a correlated-ish uniform dataset large enough
// that bnlFilter takes the block path.
func benchFilterDataset(n, d int) (*data.Dataset, []int32, mask.Mask) {
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float32, n)
	for i := range rows {
		p := make([]float32, d)
		for j := range p {
			p[j] = rng.Float32()
		}
		rows[i] = p
	}
	ds := data.FromRows(rows)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return ds, idx, mask.Full(d)
}

// benchBNL runs one form of the window filter end to end over n points.
func benchBNL(b *testing.B, n, d int, filter func(*data.Dataset, []int32, mask.Mask, bool) []int32) {
	ds, idx, delta := benchFilterDataset(n, d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filter(ds, idx, delta, false)
		if len(out) == 0 {
			b.Fatal("empty skyline")
		}
	}
}

// BenchmarkBNLFilterBlocks is the build-path counterpart of the dom
// microbenchmarks: the whole BNL window filter as production runs it at
// these sizes — through the gate, which picks the block kernels here.
func BenchmarkBNLFilterBlocks(b *testing.B) {
	b.Run("d=6", func(b *testing.B) { benchBNL(b, 4096, 6, bnlFilter) })
	b.Run("d=8", func(b *testing.B) { benchBNL(b, 4096, 8, bnlFilter) })
}

// BenchmarkBNLFilterScalar is the scalar window filter on the same input,
// called directly — the other side of the measurement behind the gate.
func BenchmarkBNLFilterScalar(b *testing.B) {
	b.Run("d=6", func(b *testing.B) { benchBNL(b, 4096, 6, bnlScalarFilter) })
	b.Run("d=8", func(b *testing.B) { benchBNL(b, 4096, 8, bnlScalarFilter) })
}

// BenchmarkBNLGate is the measurement behind dom.UseBlocks' two thresholds:
// both forms of the window filter called directly, bypassing the gate, over
// subspace width × input size on either side of each threshold. The table is
// in EXPERIMENTS.md ("Dominance-kernel benchmarks"); it is not gated.
func BenchmarkBNLGate(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5, 6, 8} {
		for _, n := range []int{8, 32, 64, 128, 512, 4096} {
			name := fmt.Sprintf("d=%d/n=%d", d, n)
			b.Run("blocks/"+name, func(b *testing.B) { benchBNL(b, n, d, bnlBlockFilter) })
			b.Run("scalar/"+name, func(b *testing.B) { benchBNL(b, n, d, bnlScalarFilter) })
		}
	}
}

// hybridBenchInputs are the two cuboid shapes the repo's benchmark feeds
// Hybrid: the `narrow` build input and the `wide` delete-flush input.
var hybridBenchInputs = []struct {
	name string
	dist gen.Distribution
	n, d int
}{
	{"A_d=4_n=200000", gen.Anticorrelated, 200_000, 4},
	{"I_d=6_n=15000", gen.Independent, 15_000, 6},
}

// BenchmarkHybridPreprocess is HybridInstrumented before its first dominance test:
// pivots, labels, δ-sums and the tile order. It is linear in n; a full sort
// creeping back in shows here first.
func BenchmarkHybridPreprocess(b *testing.B) {
	for _, in := range hybridBenchInputs {
		b.Run(in.name, func(b *testing.B) {
			ds := gen.Synthetic(in.dist, in.n, in.d, 7)
			rows, dims := allRows(ds.N), mask.Dims(mask.Full(in.d))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, ord := hybridPrepare(ds, rows, dims); len(ord) != in.n {
					b.Fatal("short order")
				}
			}
		})
	}
}

// BenchmarkExtendedSkylineHybrid is the whole engine on one thread as
// PrepareMDMC calls it: preprocessing, the fused pass, and S⁺ as one list.
func BenchmarkExtendedSkylineHybrid(b *testing.B) {
	for _, in := range hybridBenchInputs {
		b.Run(in.name, func(b *testing.B) {
			ds := gen.Synthetic(in.dist, in.n, in.d, 7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(ExtendedSkyline(ds, nil, mask.Full(in.d), AlgoHybrid, 1)) == 0 {
					b.Fatal("empty extended skyline")
				}
			}
		})
	}
}

// BenchmarkComputeHybrid is the cuboid hook of STSC and SDSC on one thread,
// where its word sweeps repeat exactly: the `wide` and `narrow` build inputs,
// and an input almost all of which dies on its first sweep — the shape on
// which a dearer sweep would cost more than the second pass it replaces saves.
func BenchmarkComputeHybrid(b *testing.B) {
	for _, in := range []struct {
		name string
		dist gen.Distribution
		n, d int
	}{
		{"I_d=8_n=5000", gen.Independent, 5000, 8},
		{"A_d=4_n=200000", gen.Anticorrelated, 200_000, 4},
		{"I_d=4_n=100000", gen.Independent, 100_000, 4},
	} {
		b.Run(in.name, func(b *testing.B) {
			ds := gen.Synthetic(in.dist, in.n, in.d, 7)
			b.ReportAllocs()
			b.ResetTimer()
			before := dom.KernelStats().BlockSweeps
			for i := 0; i < b.N; i++ {
				if len(Compute(ds, nil, mask.Full(in.d), AlgoHybrid, 1).Skyline) == 0 {
					b.Fatal("empty skyline")
				}
			}
			b.ReportMetric(float64(dom.KernelStats().BlockSweeps-before)/float64(b.N), "sweeps/op")
		})
	}
}
