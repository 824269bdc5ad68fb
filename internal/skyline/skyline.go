// Package skyline implements the subspace-skyline substrate the skycube
// templates hook in (paper §3, §5.1):
//
//   - BNL: the classic block-nested-loop algorithm, used as the reference
//     implementation and for small recursion leaves;
//   - BSkyTree: sequential point-based pivot partitioning (Lee & Hwang),
//     the per-cuboid engine of QSkycube;
//   - Hybrid: the tiled, label-tree multicore algorithm (Chester et
//     al., ICDE 2015), the hook of the STSC and SDSC CPU specialisations,
//     as one fused pass over a window of skyline members.
//
// Each algorithm has one dominance path. Hybrid sweeps 64-lane words of its
// block groups (internal/dom's block kernels); BNL, BSkyTree and PSkyline
// compare rows, as the paper's baselines do, so the oracle and the baselines
// never run the kernels they are measured against.
//
// Every algorithm computes, for a subspace δ, both the skyline S_δ and the
// extended skyline S⁺_δ (Definition 2): the extended skyline of a parent
// cuboid is the reduced input for its children in the top-down lattice
// traversal.
package skyline

import (
	"skycube/internal/data"
	"skycube/internal/mask"
)

// Algo selects a skyline implementation.
type Algo int

const (
	// AlgoBNL is the O(n²) reference block-nested-loop.
	AlgoBNL Algo = iota
	// AlgoBSkyTree is sequential pivot-based partitioning.
	AlgoBSkyTree
	// AlgoHybrid is the tiled multicore algorithm.
	AlgoHybrid
	// AlgoPSkyline is the naive divide-and-conquer multicore baseline.
	AlgoPSkyline
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoBNL:
		return "BNL"
	case AlgoBSkyTree:
		return "BSkyTree"
	case AlgoHybrid:
		return "Hybrid"
	case AlgoPSkyline:
		return "PSkyline"
	}
	return "?"
}

// Status classifies a point relative to a subspace δ.
type Status uint8

const (
	// Dominated points are strictly dominated in δ: in neither S_δ nor S⁺_δ.
	Dominated Status = iota
	// ExtendedOnly points are in S⁺_δ but not S_δ (dominated, with a tie on
	// some dimension of δ).
	ExtendedOnly
	// InSkyline points are in S_δ (hence also in S⁺_δ).
	InSkyline
)

// Result reports a subspace computation over an input dataset.
type Result struct {
	// Skyline holds the rows (indices into the input dataset) of S_δ, in
	// ascending row order.
	Skyline []int32
	// ExtOnly holds the rows of S⁺_δ \ S_δ, ascending.
	ExtOnly []int32
}

// ExtendedSize returns |S⁺_δ|.
func (r Result) ExtendedSize() int { return len(r.Skyline) + len(r.ExtOnly) }

// Extended returns all rows of S⁺_δ in ascending order.
func (r Result) Extended() []int32 {
	out := make([]int32, 0, r.ExtendedSize())
	i, j := 0, 0
	for i < len(r.Skyline) && j < len(r.ExtOnly) {
		if r.Skyline[i] < r.ExtOnly[j] {
			out = append(out, r.Skyline[i])
			i++
		} else {
			out = append(out, r.ExtOnly[j])
			j++
		}
	}
	out = append(out, r.Skyline[i:]...)
	out = append(out, r.ExtOnly[j:]...)
	return out
}

// Compute runs algorithm algo on the given rows of ds (all rows if rows is
// nil) in subspace δ, with the given thread count (only AlgoHybrid and
// AlgoPSkyline are parallel; the others ignore threads). It returns both S_δ
// and S⁺_δ\S_δ.
//
// Hybrid classifies every point in one pass (HybridInstrumented). The others
// produce the two sets with the paper's two-phase structure: a strict-
// dominance filter yields S⁺_δ, and a dominance filter *within* S⁺_δ yields
// S_δ — sound because S_δ ⊆ S⁺_δ and any dominator of a point in S⁺_δ can
// be replaced by one in S⁺_δ.
func Compute(ds *data.Dataset, rows []int32, delta mask.Mask, algo Algo, threads int) Result {
	if rows == nil {
		rows = allRows(ds.N)
	}
	if algo == AlgoHybrid {
		return HybridInstrumented(ds, rows, delta, threads, nil)
	}
	ext := filter(ds, rows, delta, true, algo, threads)
	sky := filter(ds, ext, delta, false, algo, threads)
	return Result{Skyline: sky, ExtOnly: DiffSorted(ext, sky)}
}

// ExtendedSkyline returns the rows of S⁺_δ.
func ExtendedSkyline(ds *data.Dataset, rows []int32, delta mask.Mask, algo Algo, threads int) []int32 {
	if rows == nil {
		rows = allRows(ds.N)
	}
	if algo == AlgoHybrid {
		return HybridInstrumented(ds, rows, delta, threads, nil).Extended()
	}
	return filter(ds, rows, delta, true, algo, threads)
}

// filter returns the rows not (strictly, if strict) dominated in δ by any
// other given row, in ascending row order, for the algorithms that are a
// filter run twice.
func filter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, algo Algo, threads int) []int32 {
	switch algo {
	case AlgoBNL:
		return bnlFilter(ds, rows, delta, strict, nil)
	case AlgoBSkyTree:
		return PivotFilter(ds, rows, delta, strict, nil)
	case AlgoPSkyline:
		return pskyFilter(ds, rows, delta, strict, threads)
	}
	panic("skyline: unknown algorithm")
}

// StatusAll classifies every row of ds relative to δ.
func StatusAll(ds *data.Dataset, delta mask.Mask, algo Algo, threads int) []Status {
	res := Compute(ds, nil, delta, algo, threads)
	st := make([]Status, ds.N)
	for _, r := range res.Skyline {
		st[r] = InSkyline
	}
	for _, r := range res.ExtOnly {
		st[r] = ExtendedOnly
	}
	return st
}

func allRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}

// DiffSorted returns the elements of a (sorted ascending) not present in b
// (sorted ascending): S⁺_δ \ S_δ from the two filter passes of a cuboid.
func DiffSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)-len(b))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
