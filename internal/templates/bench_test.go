package templates

import (
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/hashcube"
	"skycube/internal/lattice"
)

// BenchmarkMDMCBuild is the point-task half of an MDMC build — RunMDMC with
// the CPU kernel on two workers over a prepared context, the prologue outside
// the timer — on the `wide` and `narrow` build inputs and at two paper-shaped
// sizes (one build of which takes about a second or more: run them with
// -benchtime=1x). dts/op are the dominance tests of one build, filtered at the
// level the context picks as the kernel is, counted by a single-thread pass
// through the accounting hooks, so they repeat exactly and say whether a
// faster build tests less or tests cheaper.
func BenchmarkMDMCBuild(b *testing.B) {
	for _, in := range []struct {
		name string
		dist gen.Distribution
		n, d int
	}{
		{"I_d=8_n=5000", gen.Independent, 5000, 8},
		{"A_d=4_n=200000", gen.Anticorrelated, 200_000, 4},
		{"I_d=10_n=100000", gen.Independent, 100_000, 10},
		{"I_d=12_n=20000", gen.Independent, 20_000, 12},
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
				sol.Filter(p, ctx.FilterLevel)
				sol.RefineInstrumented(p, true, nil, func() { dts++ })
			}
			b.ReportMetric(float64(dts), "dts/op")
		})
	}
}

// BenchmarkTemplateBuild is a whole STSC or SDSC build on two threads, on the
// `wide` and `narrow` build inputs. sweeps/op are the words one build sweeps;
// a cuboid sweeps the same words on any number of threads, and neither
// template's cuboids depend on how its threads are split, so they repeat
// exactly.
func BenchmarkTemplateBuild(b *testing.B) {
	for _, tmpl := range []struct {
		name  string
		build func(*data.Dataset, Options) *lattice.Lattice
	}{
		{"STSC", STSC},
		{"SDSC", SDSC},
	} {
		for _, in := range []struct {
			name string
			dist gen.Distribution
			n, d int
		}{
			{"I_d=8_n=5000", gen.Independent, 5000, 8},
			{"A_d=4_n=200000", gen.Anticorrelated, 200_000, 4},
		} {
			b.Run(tmpl.name+"/"+in.name, func(b *testing.B) {
				ds := gen.Synthetic(in.dist, in.n, in.d, 7)
				b.ReportAllocs()
				b.ResetTimer()
				before := dom.KernelStats().BlockSweeps
				for i := 0; i < b.N; i++ {
					if tmpl.build(ds, Options{Threads: 2}).IDCount() == 0 {
						b.Fatal("empty lattice")
					}
				}
				b.ReportMetric(float64(dom.KernelStats().BlockSweeps-before)/float64(b.N), "sweeps/op")
			})
		}
	}
}
