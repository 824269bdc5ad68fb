package templates

import (
	"testing"

	"skycube/internal/gen"
	"skycube/internal/hashcube"
)

// BenchmarkMDMCBuild is the point-task half of an MDMC build — RunMDMC with
// the CPU kernel on two workers over a prepared context, the prologue outside
// the timer — on the `wide` and `narrow` build inputs and at a paper-shaped
// size (one build of which takes seconds: run it with -benchtime=1x). dts/op
// are the dominance tests of one build, counted as benchmark/probes.go counts
// templates.mdmc_dts: by a single-thread pass through the accounting hooks,
// so they repeat exactly and say whether a faster build tests less or tests
// cheaper.
func BenchmarkMDMCBuild(b *testing.B) {
	for _, in := range []struct {
		name string
		dist gen.Distribution
		n, d int
	}{
		{"I_d=8_n=5000", gen.Independent, 5000, 8},
		{"A_d=4_n=200000", gen.Anticorrelated, 200_000, 4},
		{"I_d=10_n=100000", gen.Independent, 100_000, 10},
	} {
		b.Run(in.name, func(b *testing.B) {
			const threads = 2
			ctx := PrepareMDMC(gen.Synthetic(in.dist, in.n, in.d, 7), threads, 0, 0)
			kernel := CPUPointKernel(MDMCOptions{Options: Options{Threads: threads}})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Cube = hashcube.New(in.d) // every build fills a cube of its own
				RunMDMC(ctx, kernel, threads, nil)
			}
			b.StopTimer()
			if ctx.Cube.IDCount() == 0 {
				b.Fatal("empty cube")
			}
			sol := NewSolution(ctx)
			dts := 0
			for p := 0; p < ctx.NumTasks(); p++ {
				sol.Reset()
				sol.Filter(p, 2)
				sol.RefineInstrumented(p, true, nil, func() { dts++ })
			}
			b.ReportMetric(float64(dts), "dts/op")
		})
	}
}
