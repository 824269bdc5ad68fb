package skyline

import (
	"cmp"
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// PivotStrategy selects how the pivot-partitioned algorithm picks its
// pivot per recursion (the axis on which BSkyTree, OSP and friends differ,
// paper §3).
type PivotStrategy int

const (
	// PivotMinL1 is BSkyTree's balanced pivot: the point with the smallest
	// range-normalised L1 distance from the origin. It cannot be strictly
	// dominated, and it balances the partition masks.
	PivotMinL1 PivotStrategy = iota
	// PivotFirst takes the first input point after removing those it
	// dominates — OSP-style "a skyline point", cheap but unbalanced.
	PivotFirst
	// PivotMedian builds a virtual pivot from per-dimension medians
	// (VMPSP-style). Virtual pivots partition but never kill points.
	PivotMedian
)

// pivotStrategy is the package-wide strategy used by AlgoBSkyTree; the
// ablation benchmarks swap it via PivotFilterWith.
var defaultPivotStrategy = PivotMinL1

// PivotFilterWith runs the pivot-partitioned filter under an explicit
// strategy, for ablation studies.
func PivotFilterWith(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, strategy PivotStrategy) []int32 {
	out := pivotRecWith(ds, rows, delta, strict, 0, strategy)
	slices.Sort(out)
	return out
}

// pivotFilter is the sequential point-based partitioning algorithm in the
// style of BSkyTree (Lee & Hwang; paper §3, App. B.2): pick a pivot that
// cannot be strictly dominated (the minimum range-normalised L1 point),
// partition the input by each point's B_{π≤p} mask, recurse per partition
// in ascending popcount order, and compare across partitions only when the
// mask test (Equation 1) is inconclusive.
//
// This is the per-cuboid engine of the QSkycube baseline; it uses a
// variable-depth recursive tree, which is exactly the pointer-chasing,
// cache-hungry structure whose parallel scalability the paper critiques.
func pivotFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	return PivotFilterWith(ds, rows, delta, strict, defaultPivotStrategy)
}

// pivotLeafSize is the input size below which recursion falls back to BNL.
const pivotLeafSize = 48

type bucket struct {
	m    mask.Mask // B_{π≤p} & δ shared by the partition
	rows []int32
}

func pivotRecWith(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, depth int, strategy PivotStrategy) []int32 {
	if len(rows) <= pivotLeafSize || depth > 64 {
		return bnlFilter(ds, rows, delta, strict)
	}
	var piv int32
	var pivPoint []float32
	var virtual []float32
	switch strategy {
	case PivotFirst:
		piv = rows[0]
		pivPoint = ds.Point(int(piv))
	case PivotMedian:
		piv = -1
		virtual = medianPivot(ds, rows, delta)
		pivPoint = virtual
	default:
		piv = selectPivot(ds, rows, delta)
		pivPoint = ds.Point(int(piv))
	}

	// Partition by mask against the pivot, dropping points the pivot kills.
	parts := make(map[mask.Mask]*bucket, 64)
	var order []*bucket
	progress := false
	for _, p := range rows {
		r := dom.Compare(pivPoint, ds.Point(int(p)))
		// A virtual pivot (piv < 0) is not a data point, so it must not
		// remove anything: only a real pivot kills.
		if piv >= 0 && p != piv && dom.Kills(r, delta, strict) {
			progress = true
			continue
		}
		m := r.Leq() & delta
		b := parts[m]
		if b == nil {
			b = &bucket{m: m}
			parts[m] = b
			order = append(order, b)
		}
		b.rows = append(b.rows, p)
	}
	if !progress && len(order) == 1 {
		// Degenerate input (e.g. all duplicates): partitioning cannot make
		// progress, so finish with the quadratic leaf algorithm.
		return bnlFilter(ds, rows, delta, strict)
	}

	// Ascending popcount: a partition's dominators lie only in partitions
	// whose mask is a submask of its own, which have strictly fewer bits.
	slices.SortFunc(order, func(a, b *bucket) int {
		return cmp.Or(cmp.Compare(mask.Count(a.m), mask.Count(b.m)), cmp.Compare(a.m, b.m))
	})

	type resEntry struct {
		row int32
		m   mask.Mask
	}
	var result []resEntry
	for _, b := range order {
		local := pivotRecWith(ds, b.rows, delta, strict, depth+1, strategy)
		for _, p := range local {
			pp := ds.Point(int(p))
			dead := false
			for _, e := range result {
				// Mask test: e can only dominate p if e.m ⊆ b.m within δ
				// (Equation 1 with the shared pivot π).
				if e.m&^b.m&delta != 0 {
					continue
				}
				r := dom.Compare(ds.Point(int(e.row)), pp)
				if dom.Kills(r, delta, strict) {
					dead = true
					break
				}
			}
			if !dead {
				result = append(result, resEntry{row: p, m: b.m})
			}
		}
	}
	out := make([]int32, len(result))
	for i, e := range result {
		out[i] = e.row
	}
	return out
}

// medianPivot builds VMPSP's virtual pivot: the per-dimension median of
// the rows, restricted to δ (other dimensions are zero and never consulted
// because the partition masks are projected onto δ).
func medianPivot(ds *data.Dataset, rows []int32, delta mask.Mask) []float32 {
	piv := make([]float32, ds.Dims)
	col := make([]float32, len(rows))
	for _, j := range mask.Dims(delta) {
		for i, p := range rows {
			col[i] = ds.Value(int(p), j)
		}
		data.SelectRanks(col, len(col)/2)
		piv[j] = col[len(col)/2]
	}
	return piv
}

// selectPivot returns the row minimising the range-normalised L1 distance
// from the origin over the dimensions of δ (BSkyTree's balanced pivot).
// Such a point cannot be strictly dominated by any other input point, so it
// is always in S⁺_δ.
func selectPivot(ds *data.Dataset, rows []int32, delta mask.Mask) int32 {
	dims := mask.Dims(delta)
	lo := make([]float32, len(dims))
	hi := make([]float32, len(dims))
	for k := range dims {
		lo[k], hi[k] = ds.Value(int(rows[0]), dims[k]), ds.Value(int(rows[0]), dims[k])
	}
	for _, p := range rows[1:] {
		for k, j := range dims {
			v := ds.Value(int(p), j)
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	best := rows[0]
	bestScore := float64(1e30)
	for _, p := range rows {
		s := 0.0
		for k, j := range dims {
			den := hi[k] - lo[k]
			if den <= 0 {
				continue
			}
			s += float64((ds.Value(int(p), j) - lo[k]) / den)
		}
		if s < bestScore {
			bestScore = s
			best = p
		}
	}
	return best
}
