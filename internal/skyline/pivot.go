package skyline

import (
	"cmp"
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// PivotHooks let a machine model run PivotFilter on its own worker and charge
// the work it does, as HybridHooks do for Hybrid, so the model profiles the
// filter that runs rather than a copy of it. All five must be set. depth is
// the recursion depth of the partitioning call an event belongs to: the call
// the latest Pivot at that depth opened.
type PivotHooks struct {
	// Pivot is called once per partitioning call, after selectPivot's two
	// passes over rows chose piv.
	Pivot func(depth int, rows []int32, piv int32)
	// Partition is called once per row p compared with the pivot: killed, or
	// appended to the call's partition of mask m, which the call's first row
	// with m creates.
	Partition func(depth int, p int32, m mask.Mask, killed bool)
	// Test is called once per mask test of a row against the call's result
	// entry i.
	Test func(depth, i int)
	// Compare is called before every row compare but the pivot's, in the
	// result loops and in the BNL leaves: q as the candidate dominator of p.
	Compare func(q, p int32)
	// Keep is called once per row appended to the call's result, which
	// becomes its next entry.
	Keep func(depth int)
}

// PivotFilter is the sequential point-based partitioning algorithm in the
// style of BSkyTree (Lee & Hwang; paper §3, App. B.2): pick a pivot that
// cannot be strictly dominated (the minimum range-normalised L1 point),
// partition the input by each point's B_{π≤p} mask, recurse per partition
// in ascending popcount order, and compare across partitions only when the
// mask test (Equation 1) is inconclusive. It returns the rows not (strictly,
// if strict) dominated in δ, in ascending order, and reports its work to h
// (nil for none; AlgoBSkyTree passes nil).
//
// This is the per-cuboid engine of the QSkycube baseline; it uses a
// variable-depth recursive tree, which is exactly the pointer-chasing,
// cache-hungry structure whose parallel scalability the paper critiques.
func PivotFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, h *PivotHooks) []int32 {
	out := pivotRec(ds, rows, delta, strict, 0, h)
	slices.Sort(out)
	return out
}

// pivotLeafSize is the input size below which recursion falls back to BNL.
const pivotLeafSize = 48

type bucket struct {
	m    mask.Mask // B_{π≤p} & δ shared by the partition
	rows []int32
}

func pivotRec(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, depth int, h *PivotHooks) []int32 {
	if len(rows) <= pivotLeafSize || depth > 64 {
		return bnlFilter(ds, rows, delta, strict, h)
	}
	piv := selectPivot(ds, rows, delta)
	if h != nil {
		h.Pivot(depth, rows, piv)
	}
	pivPoint := ds.Point(int(piv))

	// Partition by mask against the pivot, dropping points the pivot kills.
	parts := make(map[mask.Mask]*bucket, 64)
	var order []*bucket
	progress := false
	for _, p := range rows {
		r := dom.Compare(pivPoint, ds.Point(int(p)))
		killed := p != piv && dom.Kills(r, delta, strict)
		m := r.Leq() & delta
		if h != nil {
			h.Partition(depth, p, m, killed)
		}
		if killed {
			progress = true
			continue
		}
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
		return bnlFilter(ds, rows, delta, strict, h)
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
		local := pivotRec(ds, b.rows, delta, strict, depth+1, h)
		for _, p := range local {
			pp := ds.Point(int(p))
			dead := false
			for i, e := range result {
				if h != nil {
					h.Test(depth, i)
				}
				// Mask test: e can only dominate p if e.m ⊆ b.m within δ
				// (Equation 1 with the shared pivot π).
				if e.m&^b.m&delta != 0 {
					continue
				}
				if h != nil {
					h.Compare(e.row, p)
				}
				r := dom.Compare(ds.Point(int(e.row)), pp)
				if dom.Kills(r, delta, strict) {
					dead = true
					break
				}
			}
			if !dead {
				if h != nil {
					h.Keep(depth)
				}
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
