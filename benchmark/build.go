package main

import (
	"runtime"
	"slices"
	"time"

	"skycube"
	"skycube/internal/data"
	"skycube/internal/hashcube"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/qskycube"
	"skycube/internal/templates"
)

// algorithms is the order of one round of builds. QSkycube is last: its cube
// is the round's oracle.
var algorithms = []struct {
	algo   skycube.Algorithm
	metric string
}{
	{skycube.MDMC, "build_mdmc_s"},
	{skycube.STSC, "build_stsc_s"},
	{skycube.SDSC, "build_sdsc_s"},
	{skycube.PQSkycube, "build_pqskycube_s"},
	{skycube.QSkycube, "build_qskycube_s"},
}

// buildSeconds is the least build time per algorithm and cycle, which at
// most maxBuildRepeats builds make up.
const (
	buildSeconds    = 0.2
	maxBuildRepeats = 8
)

// cube is what both representations answer.
type cube interface {
	Skyline(delta skycube.Subspace) []int32
}

// wrongSubspaces counts the subspaces of a d-dimensional space on which got
// and want disagree.
func wrongSubspaces(got, want cube, d int) int {
	wrong := 0
	for _, delta := range skycube.AllSubspaces(d) {
		if !sameIDs(got.Skyline(delta), want.Skyline(delta)) {
			wrong++
		}
	}
	return wrong
}

// sameIDs compares two id lists as sets; neither is modified.
func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if !slices.IsSorted(a) {
		a = slices.Clone(a)
		slices.Sort(a)
	}
	if !slices.IsSorted(b) {
		b = slices.Clone(b)
		slices.Sort(b)
	}
	return slices.Equal(a, b)
}

// warmBuilds builds a prefix of the data with every algorithm, so that the
// first cycle is not the only one paying for the allocator's growth and the
// block pools.
func warmBuilds(cfg config) {
	sh := cfg.w.build
	sh.n /= 8
	_, prefix, _, err := cfg.dataset(sh, buildInput)
	if err != nil {
		return // set-up reports it
	}
	for _, a := range algorithms {
		_, _, _ = skycube.Build(prefix, skycube.Options{Algorithm: a.algo, Threads: threads})
	}
}

// buildStage builds the dataset's skycube with each of the five algorithms
// and checks every cube against the QSkycube cube on all 2^d − 1 subspaces.
// The untraced run goes through skycube.Build and reports Stats.Elapsed per
// algorithm; the traced run goes through the layers' own entry points, with a
// span around each.
func buildStage(fx *fixture, cfg config, tr *tracer, t *tally, m metricSet) stageSpan {
	root := tr.begin("benchmark", "build_stage", -1, 0)
	start := time.Now()
	cubes := make([]cube, len(algorithms))
	for i, a := range algorithms {
		if tr != nil {
			runtime.GC()
			cubes[i] = tracedBuild(fx, a.algo, tr, root, i+1, m)
			continue
		}
		// A build that takes a twentieth of a second is measured less well
		// than one that takes half a second, so the short ones are repeated
		// until each algorithm has buildSeconds of samples in the cycle.
		for spent, k := 0.0, 0; k == 0 || spent < cfg.buildSeconds && k < maxBuildRepeats; k++ {
			runtime.GC() // every timed build starts from a collected heap
			c, stats, err := skycube.Build(fx.ds, skycube.Options{Algorithm: a.algo, Threads: threads})
			if err != nil {
				t.check(false, "%v build: %v", a.algo, err)
				break
			}
			cubes[i] = c
			m.add(a.metric, stats.Elapsed.Seconds())
			spent += stats.Elapsed.Seconds()
		}
	}
	wall := time.Since(start)
	tr.end(root)
	oracle := cubes[len(cubes)-1]
	for i, a := range algorithms[:len(algorithms)-1] {
		if cubes[i] == nil || oracle == nil {
			continue
		}
		wrong := wrongSubspaces(cubes[i], oracle, cfg.w.build.d)
		t.check(wrong == 0, "%v cube differs from QSkycube on %d subspaces", a.algo, wrong)
	}
	return stageSpan{name: "build", roots: tr.roots(root), wall: wall, parallel: 1}
}

// tracedBuild runs one algorithm through its layer's entry points — the same
// calls skycube.Build makes — with a span around each, and records the
// layer's counts.
func tracedBuild(fx *fixture, algo skycube.Algorithm, tr *tracer, root, op int, m metricSet) cube {
	switch algo {
	case skycube.MDMC:
		k0, a0 := skycube.KernelStats(), totalAlloc()
		id := tr.begin("templates", "mdmc", root, op)
		var ctx *templates.MDMCContext
		prepare := tr.do("templates", "mdmc_prepare", id, op, func() {
			ctx = templates.PrepareMDMC(fx.raw, threads, 0, 0)
		})
		kernel := templates.CPUPointKernel(templates.MDMCOptions{Options: templates.Options{Threads: threads}})
		run := tr.do("templates", "mdmc_run", id, op, func() {
			templates.RunMDMC(ctx, kernel, threads, nil)
		})
		tr.end(id)
		k1 := skycube.KernelStats()
		m.add("templates.mdmc_alloc_mb", mb(totalAlloc()-a0))
		m.add("templates.mdmc_prepare_s", prepare.Seconds())
		m.add("templates.mdmc_run_s", run.Seconds())
		m.add("templates.mdmc_tasks", float64(ctx.NumTasks()))
		m.add("dom.block_sweeps", float64(k1.BlockSweeps-k0.BlockSweeps))
		m.add("dom.scalar_fallbacks", float64(k1.ScalarFallback-k0.ScalarFallback))
		m.add("dom.stop_point_exits", float64(k1.StopPointExits-k0.StopPointExits))
		m.add("hashcube.ids", float64(ctx.Cube.IDCount()))
		m.add("hashcube.skyline_us", medianSkylineMicros(ctx.Cube, fx.raw.Dims))
		fx.mdmc = ctx
		return ctx.Cube

	case skycube.STSC, skycube.SDSC:
		name, template, hookThreads := "stsc", templates.STSCTemplate, 1
		if algo == skycube.SDSC {
			name, template, hookThreads = "sdsc", templates.SDSCTemplate, threads
		}
		id := tr.begin("templates", name, root, op)
		hybrid := templates.HybridCuboid(hookThreads)
		hook := func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
			c := tr.begin("skyline", name+"_cuboid", id, op)
			sky, extOnly = hybrid(ds, rows, delta)
			tr.end(c)
			return sky, extOnly
		}
		l := template(fx.raw, hook, templates.Options{Threads: threads})
		tr.end(id)
		spans := tr.snapshot()
		m.add("templates."+name+"_self_s", selfTimes(spans)[id].Seconds())
		if algo == skycube.SDSC { // its cuboids run one after another, so their times add up to wall time
			total, calls := sumChildren(spans, id)
			m.add("skyline.cuboid_total_s", total.Seconds())
			m.add("skyline.cuboid_calls", float64(calls))
		}
		return l

	default: // PQSkycube, QSkycube
		name, workers := "pqskycube", threads
		if algo == skycube.QSkycube {
			name, workers = "qskycube", 1
		}
		a0 := totalAlloc()
		var l *lattice.Lattice
		tr.do("qskycube", name, root, op, func() {
			l = qskycube.Build(fx.raw, qskycube.Options{Threads: workers})
		})
		if algo == skycube.QSkycube {
			m.add("qskycube.alloc_mb", mb(totalAlloc()-a0))
			m.add("lattice.ids", float64(l.IDCount()))
			m.add("lattice.skyline_us", medianSkylineMicros(l, fx.raw.Dims))
		}
		return l
	}
}

var _ cube = (*hashcube.HashCube)(nil)

// medianSkylineMicros is the median time of Skyline(δ) over every subspace.
func medianSkylineMicros(c cube, d int) float64 {
	var us []float64
	for _, delta := range mask.Subspaces(d) {
		start := time.Now()
		c.Skyline(delta)
		us = append(us, micros(time.Since(start)))
	}
	return median(us)
}

// totalAlloc is the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
