package skyline

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// benchFilterDataset builds a uniform dataset of n points in [0,1)^d.
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

// BenchmarkBNLFilter is the window filter AlgoBNL and BSkyTree's leaves run,
// on 4096 uniform points in the full space: one row compare per pair.
func BenchmarkBNLFilter(b *testing.B) {
	for _, d := range []int{6, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			ds, idx, delta := benchFilterDataset(4096, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(bnlFilter(ds, idx, delta, false, nil)) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
	}
}

// BenchmarkPivotFilter is the BSkyTree filter QSkycube and PQSkycube build
// every cuboid with, hooks nil, on A 4000×6 in the full space: strict (S⁺)
// and not (S).
func BenchmarkPivotFilter(b *testing.B) {
	ds := gen.Synthetic(gen.Anticorrelated, 4000, 6, 20170514)
	rows, delta := allRows(ds.N), mask.Full(6)
	for _, strict := range []bool{true, false} {
		b.Run(fmt.Sprintf("strict=%v", strict), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(PivotFilter(ds, rows, delta, strict, nil)) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
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

// BenchmarkHybridPreprocess is HybridInstrumented before its first dominance
// test of phase A on one thread: δ-sums, the pre-filter above prologueGrain
// (its word sweeps are inside the timer), the tile order, the staged copy of
// the survivors' projected points, pivots and labels. It is linear in n; a
// full sort creeping back in shows here first. Stages are pooled, as in the
// engine.
func BenchmarkHybridPreprocess(b *testing.B) {
	for _, in := range hybridBenchInputs {
		b.Run(in.name, func(b *testing.B) {
			ds := gen.Synthetic(in.dist, in.n, in.d, 7)
			rows, delta := allRows(ds.N), mask.Full(in.d)
			dims, want := mask.Dims(delta), preFilterSurvivors(ds, rows, delta)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stage := hybridPrepare(ds, rows, dims, 1)
				if len(stage.ord) != want {
					b.Fatalf("%d rows staged, want the %d the pre-filter keeps", len(stage.ord), want)
				}
				stagePool.Put(stage)
			}
		})
	}
}

// preFilterSurvivors is how many rows hybridPrepare stages, by a sort and row
// compares: below prologueGrain all of them, above it those that none of the
// kernelWord rows with the smallest (δ-sum, row) strictly dominates.
func preFilterSurvivors(ds *data.Dataset, rows []int32, delta mask.Mask) int {
	if len(rows) < prologueGrain {
		return len(rows)
	}
	dims := mask.Dims(delta)
	sum := func(r int32) float32 { return data.SumOver(ds.Point(int(r)), dims) }
	reps := slices.Clone(rows)
	slices.SortFunc(reps, func(a, b int32) int { return cmp.Or(cmp.Compare(sum(a), sum(b)), cmp.Compare(a, b)) })
	reps = reps[:kernelWord]
	kept := 0
	for _, r := range rows {
		if !slices.ContainsFunc(reps, func(q int32) bool {
			return dom.Kills(dom.Compare(ds.Point(int(q)), ds.Point(int(r))), delta, true)
		}) {
			kept++
		}
	}
	return kept
}

// BenchmarkExtendedSkylineHybrid is the whole engine as PrepareMDMC calls it:
// preprocessing, the fused pass, and S⁺ as one list, on one thread, and on
// two over the `narrow` build input, where the prologue forks
// (PrologueWorkers) and phase A spreads each tile. The group order, and with
// it every word swept, does not depend on the thread count, so sweeps/op
// repeats exactly on both.
func BenchmarkExtendedSkylineHybrid(b *testing.B) {
	runs := []struct {
		name    string
		in      int // index into hybridBenchInputs
		threads int
	}{
		{hybridBenchInputs[0].name, 0, 1},
		{hybridBenchInputs[1].name, 1, 1},
		{hybridBenchInputs[0].name + "_threads=2", 0, 2},
	}
	for _, run := range runs {
		in := hybridBenchInputs[run.in]
		b.Run(run.name, func(b *testing.B) {
			ds := gen.Synthetic(in.dist, in.n, in.d, 7)
			b.ReportAllocs()
			b.ResetTimer()
			before := dom.KernelStats().BlockSweeps
			for i := 0; i < b.N; i++ {
				if len(ExtendedSkyline(ds, nil, mask.Full(in.d), AlgoHybrid, run.threads)) == 0 {
					b.Fatal("empty extended skyline")
				}
			}
			b.ReportMetric(float64(dom.KernelStats().BlockSweeps-before)/float64(b.N), "sweeps/op")
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
