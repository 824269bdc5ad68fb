// Benchmarks mirroring the paper's evaluation: one benchmark per figure
// and table (see DESIGN.md's per-experiment index), plus ablations of the
// design decisions. Each benchmark exercises the same code path as the
// corresponding cmd/experiments subcommand, at the "tiny" scale so that
// `go test -bench=.` completes quickly; run `cmd/experiments -scale small`
// (or `paper`) for the full sweeps recorded in EXPERIMENTS.md.
package skycube_test

import (
	"io"
	"testing"

	"skycube"
	"skycube/internal/bench"
	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/gpu"
	"skycube/internal/gpusim"
	"skycube/internal/lattice"
	"skycube/internal/templates"
)

func tinyScale(b *testing.B) bench.Scale {
	b.Helper()
	s, err := bench.ScaleByName("tiny")
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchDataset is the fixed workload for the per-algorithm benchmarks.
func benchDataset() *skycube.Dataset {
	return skycube.GenerateSynthetic(skycube.Independent, 2000, 6, 20170514)
}

func buildBench(b *testing.B, opt skycube.Options) {
	ds := benchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skycube.Build(ds, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: baseline single-thread parity -------------------------------

func BenchmarkFig4QSkycube(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.QSkycube, Threads: 1})
}

func BenchmarkFig4PQSkycube1T(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.PQSkycube, Threads: 1})
}

// --- Figure 5: thread scaling (modelled speedup harness) -------------------

func BenchmarkFig5ModelledSpeedup(b *testing.B) {
	s := tinyScale(b)
	for i := 0; i < b.N; i++ {
		bench.Fig5(io.Discard, s)
	}
}

// --- Figure 6: CPU algorithms on the default workload ----------------------

func BenchmarkFig6PQSkycube(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.PQSkycube, Threads: 4})
}

func BenchmarkFig6STSC(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.STSC, Threads: 4})
}

func BenchmarkFig6SDSC(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.SDSC, Threads: 4})
}

func BenchmarkFig6MDMC(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.MDMC, Threads: 4})
}

// --- Figure 7: GPU and cross-device runs -----------------------------------

func BenchmarkFig7SDSCGPU(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.SDSC, GPUs: []skycube.GPUModel{skycube.GTX980}})
}

func BenchmarkFig7MDMCGPU(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.MDMC, Threads: 4, GPUs: []skycube.GPUModel{skycube.GTX980}})
}

func BenchmarkFig7SDSCAll(b *testing.B) {
	buildBench(b, skycube.Options{
		Algorithm: skycube.SDSC, Threads: 4, CPUAlso: true,
		GPUs: []skycube.GPUModel{skycube.GTX980, skycube.GTX980, skycube.GTXTitan},
	})
}

func BenchmarkFig7MDMCAll(b *testing.B) {
	buildBench(b, skycube.Options{
		Algorithm: skycube.MDMC, Threads: 4, CPUAlso: true,
		GPUs: []skycube.GPUModel{skycube.GTX980, skycube.GTX980, skycube.GTXTitan},
	})
}

// --- Figures 8–11: profiled hardware-counter runs --------------------------

func BenchmarkFig8to11HardwareProfile(b *testing.B) {
	s := tinyScale(b)
	for i := 0; i < b.N; i++ {
		bench.HardwareReports(s)
	}
}

// --- Figure 12: cross-device work shares ------------------------------------

func BenchmarkFig12WorkShares(b *testing.B) {
	s := tinyScale(b)
	for i := 0; i < b.N; i++ {
		bench.Fig12(io.Discard, s)
	}
}

// --- Figure 13: partial skycubes --------------------------------------------

func BenchmarkFig13PartialSTSC(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.STSC, Threads: 4, MaxLevel: 3})
}

func BenchmarkFig13PartialMDMC(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.MDMC, Threads: 4, MaxLevel: 3})
}

// --- Table 2: real-data stand-in generation ---------------------------------

func BenchmarkTable2StandIns(b *testing.B) {
	s := tinyScale(b)
	for i := 0; i < b.N; i++ {
		bench.Table2(io.Discard, s)
	}
}

// --- Table 3: real-data stand-in builds --------------------------------------

func BenchmarkTable3NBA(b *testing.B) {
	ds := skycube.GenerateReal(skycube.NBA, 0.05, 20170514)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.MDMC, Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Household(b *testing.B) {
	ds := skycube.GenerateReal(skycube.Household, 0.02, 20170514)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.MDMC, Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -------------------------------------------------

func internalBenchData() *data.Dataset {
	return gen.Synthetic(gen.Independent, 2000, 6, 20170514)
}

func BenchmarkAblationTreeDepth3(b *testing.B) {
	ds := internalBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templates.MDMC(ds, templates.MDMCOptions{Options: templates.Options{Threads: 4}})
	}
}

func BenchmarkAblationTreeDepth2(b *testing.B) {
	ds := internalBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templates.MDMC(ds, templates.MDMCOptions{Options: templates.Options{Threads: 4}, TreeDepth: 2})
	}
}

func BenchmarkAblationNoFilter(b *testing.B) {
	ds := internalBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templates.MDMC(ds, templates.MDMCOptions{Options: templates.Options{Threads: 4}, DisableFilter: true})
	}
}

func BenchmarkAblationNoMemo(b *testing.B) {
	ds := internalBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		templates.MDMC(ds, templates.MDMCOptions{Options: templates.Options{Threads: 4}, DisableMemo: true})
	}
}

func BenchmarkAblationParentMin(b *testing.B) {
	ds := internalBenchData()
	hook := templates.HybridCuboid(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lattice.TopDown(ds, hook, lattice.TopDownOptions{CuboidThreads: 4})
	}
}

func BenchmarkAblationParentFirst(b *testing.B) {
	ds := internalBenchData()
	hook := templates.HybridCuboid(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lattice.TopDown(ds, hook, lattice.TopDownOptions{CuboidThreads: 4, FirstParent: true})
	}
}

func BenchmarkAblationNoExtendedInput(b *testing.B) {
	ds := internalBenchData()
	inner := templates.HybridCuboid(1)
	all := make([]int32, ds.N)
	for i := range all {
		all[i] = int32(i)
	}
	hook := lattice.CuboidFunc(func(d2 *data.Dataset, rows []int32, delta uint32) ([]int32, []int32) {
		return inner(d2, all, delta)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lattice.TopDown(ds, hook, lattice.TopDownOptions{CuboidThreads: 4})
	}
}

// --- Ablation: GPU hook comparison (SkyAlign-style vs GGS) ------------------

func BenchmarkAblationGPUSkyAlign(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 3000, 6, 20170514)
	dev := gpusim.GTX980()
	delta := uint32(1)<<6 - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu.Compute(dev, ds, nil, delta, nil)
	}
}

func BenchmarkAblationGPUGGS(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 3000, 6, 20170514)
	dev := gpusim.GTX980()
	delta := uint32(1)<<6 - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu.ComputeGGS(dev, ds, nil, delta, nil)
	}
}

// --- Ablation: CPU hook comparison (Hybrid vs PSkyline in SDSC) -------------

func BenchmarkAblationHookHybrid(b *testing.B) {
	ds := benchDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.SDSC, Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationHookPSkyline(b *testing.B) {
	ds := benchDataset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := skycube.Options{Algorithm: skycube.SDSC, Threads: 4, SDSCHook: skycube.HookPSkyline}
		if _, _, err := skycube.Build(ds, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Observability: nil-trace fast path ------------------------------------

// BenchmarkObsMDMCTraceOff measures an MDMC build with no trace attached —
// the baseline for the < 2% instrumentation-overhead criterion; compare
// with BenchmarkObsMDMCTraceOn.
func BenchmarkObsMDMCTraceOff(b *testing.B) {
	buildBench(b, skycube.Options{Algorithm: skycube.MDMC, Threads: 4})
}

// BenchmarkObsMDMCTraceOn measures the same build with span recording live.
func BenchmarkObsMDMCTraceOn(b *testing.B) {
	ds := benchDataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := skycube.Options{Algorithm: skycube.MDMC, Threads: 4, Trace: skycube.NewTrace()}
		if _, _, err := skycube.Build(ds, opt); err != nil {
			b.Fatal(err)
		}
	}
}
