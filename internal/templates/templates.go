// Package templates implements the paper's three parallel skycube
// templates (§4) and their multicore CPU specialisations (§5).
//
// A template fixes the architecture-oblivious control flow and the static,
// read-only shared data structures; the parallel work is a declarative hook
// filled in per architecture:
//
//   - STSC — single-thread-single-cuboid (§4.2.1): cuboids of a lattice
//     level run concurrently, each computed by a *sequential* skyline
//     algorithm. Hook: a CuboidFunc.
//   - SDSC — single-device-single-cuboid (§4.2.2): cuboids run one at a
//     time per device, each computed by a *parallel* skyline algorithm.
//     Hook: a CuboidFunc.
//   - MDMC — multiple-device-multiple-cuboid (§4.3): one data-parallel task
//     per point of S⁺(P), computing that point's full non-membership
//     bitmask B_{p∉S} over a shared static tree, inserted into a HashCube.
//     Hooks: the filter and refine phases, packaged as a PointKernel.
//
// The CPU specialisations hook in the Hybrid skyline algorithm (STSC with
// one thread per cuboid while a level has a cuboid for every thread, SDSC
// with all threads on one cuboid) and a cache-conscious filter/refine
// kernel for MDMC. Where the paper's STSC would leave threads idle — a
// level of fewer cuboids than threads, above all the lone root — the
// specialisation splits the level's threads among its cuboids
// (lattice.Shares), so the root runs Hybrid on all of them; the
// plain-hook STSCTemplate keeps the paper's one thread per cuboid. GPU
// specialisations live in internal/gpu; cross-device composition in
// internal/hetero.
package templates

import (
	"skycube/internal/data"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
)

// Options configure the CPU specialisations.
type Options struct {
	// Threads is the worker count (physical cores in the paper's terms).
	Threads int
	// MaxLevel restricts materialisation to |δ| ≤ MaxLevel (App. A.2);
	// 0 means the full skycube.
	MaxLevel int
	// Trace, if non-nil, records level and cuboid spans (see internal/obs).
	Trace *obs.Trace
	// OnCuboid, if non-nil, is called after each cuboid completes — the
	// hook progress reporting and metrics ride on.
	OnCuboid func(delta mask.Mask)
}

func (o Options) threads() int {
	if o.Threads < 1 {
		return 1
	}
	return o.Threads
}

// STSCTemplate runs the single-thread-single-cuboid template with an
// arbitrary sequential cuboid hook, as the paper does: a level's cuboids run
// concurrently, each as the hook runs it, however few cuboids the level has.
func STSCTemplate(ds *data.Dataset, hook lattice.CuboidFunc, opt Options) *lattice.Lattice {
	return lattice.TopDown(ds, hook, stscOptions(opt))
}

func stscOptions(opt Options) lattice.TopDownOptions {
	return lattice.TopDownOptions{
		CuboidThreads: opt.threads(),
		MaxLevel:      opt.MaxLevel,
		Trace:         opt.Trace,
		Track:         lattice.Tracks("stsc"),
		OnCuboid:      opt.OnCuboid,
	}
}

// SDSCTemplate runs the single-device-single-cuboid template with an
// arbitrary parallel cuboid hook: cuboids are computed serially (one device
// here; internal/hetero distributes cuboids across several devices).
func SDSCTemplate(ds *data.Dataset, hook lattice.CuboidFunc, opt Options) *lattice.Lattice {
	return lattice.TopDown(ds, hook, lattice.TopDownOptions{
		CuboidThreads: 1,
		MaxLevel:      opt.MaxLevel,
		Trace:         opt.Trace,
		Track:         lattice.Tracks("sdsc"),
		OnCuboid:      opt.OnCuboid,
	})
}

// STSC is the multicore specialisation of STSC: each thread computes whole
// cuboids with a single-threaded run of the Hybrid algorithm, whose
// compact, fixed-depth, array-based tree keeps concurrent queries from
// thrashing the shared cache the way the baseline's pointer trees do
// (paper §5.1). A level of fewer cuboids than threads shares its threads
// among them (lattice.Shares): the root cuboid, or a partial skycube's
// S⁺(P), runs Hybrid on all of them, where the paper's hook would leave all
// but one idle. A cuboid's result and the words it sweeps do not depend on
// its share.
func STSC(ds *data.Dataset, opt Options) *lattice.Lattice {
	return lattice.TopDownShared(ds, HybridCuboid, stscOptions(opt))
}

// SDSC is the multicore specialisation of SDSC: one cuboid at a time,
// computed by Hybrid with all threads.
func SDSC(ds *data.Dataset, opt Options) *lattice.Lattice {
	return SDSCTemplate(ds, HybridCuboid(opt.threads()), opt)
}

// HybridCuboid returns a cuboid hook running the Hybrid skyline algorithm
// with the given thread count, adapted per §5.1 to produce the extended
// skyline alongside the skyline and to evaluate mask and dominance tests in
// the subspace.
func HybridCuboid(threads int) lattice.CuboidFunc {
	return func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
		res := skyline.Compute(ds, rows, delta, skyline.AlgoHybrid, threads)
		return res.Skyline, res.ExtOnly
	}
}
