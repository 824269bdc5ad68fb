// Package qskycube implements the evaluation baseline (paper §7.1): the
// sequential state-of-the-art QSkycube (Lee & Hwang) — a top-down lattice
// traversal whose per-cuboid engine is the point-based BSkyTree — and
// PQSkycube, the paper's direct parallelisation of it with a parallel loop
// over the cuboids of each lattice level.
//
// The defining performance characteristic the paper ascribes to this
// baseline — a variable-depth, pointer-based recursive tree per cuboid that
// competes for shared cache and scales poorly across sockets — is
// faithfully present: skyline.AlgoBSkyTree allocates its partition tree
// recursively per cuboid, per level.
package qskycube

import (
	"skycube/internal/data"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
)

// Options configure a build.
type Options struct {
	// Threads is the number of concurrently computed cuboids. 1 reproduces
	// sequential QSkycube; >1 is PQSkycube.
	Threads int
	// MaxLevel restricts materialisation to |δ| ≤ MaxLevel (App. A.2).
	MaxLevel int
	// Trace, if non-nil, records level and cuboid spans.
	Trace *obs.Trace
	// OnCuboid, if non-nil, is called after each cuboid completes.
	OnCuboid func(delta mask.Mask)
}

// Build materialises the skycube of ds as a lattice.
func Build(ds *data.Dataset, opt Options) *lattice.Lattice {
	return lattice.TopDown(ds, Cuboid, lattice.TopDownOptions{
		CuboidThreads: opt.Threads,
		MaxLevel:      opt.MaxLevel,
		Trace:         opt.Trace,
		Track:         lattice.Tracks("qsc"),
		OnCuboid:      opt.OnCuboid,
	})
}

// Cuboid is QSkycube's per-cuboid hook: a single-threaded BSkyTree run that
// produces both S_δ and S⁺_δ \ S_δ.
func Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
	res := skyline.Compute(ds, rows, delta, skyline.AlgoBSkyTree, 1)
	return res.Skyline, res.ExtOnly
}
