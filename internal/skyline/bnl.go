package skyline

import (
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// bnlFilter is the window-based block-nested-loop skyline (Börzsönyi et
// al.), over a sum-sorted SoA window or the scalar window as dom.UseBlocks
// decides; both return the same rows, sorted ascending.
func bnlFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	if dom.UseBlocks(len(rows), mask.Count(delta), dom.Window) {
		return bnlBlockFilter(ds, rows, delta, strict)
	}
	return bnlScalarFilter(ds, rows, delta, strict)
}

// bnlScalarFilter compares each point against the current window of
// undominated candidates; dominated points are dropped, and points dominated
// by a new arrival are evicted. It is the correctness reference and the
// recursion leaf of the pivot algorithm.
func bnlScalarFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	window := make([]int32, 0, 16)
	for _, p := range rows {
		pp := ds.Point(int(p))
		dead := false
		w := 0
		for _, q := range window {
			r := dom.Compare(ds.Point(int(q)), pp)
			if dom.Kills(r, delta, strict) {
				dead = true
				break
			}
			// Keep q unless p kills it.
			rq := dom.Rel{Lt: invertLt(r, delta), Eq: r.Eq}
			if !dom.Kills(rq, delta, strict) {
				window[w] = q
				w++
			}
		}
		if dead {
			continue
		}
		window = window[:w]
		window = append(window, p)
	}
	slices.Sort(window)
	return window
}

// invertLt derives B_{p<q} from Compare(q, p) restricted to δ: p < q
// exactly where q is neither less nor equal.
func invertLt(r dom.Rel, delta mask.Mask) mask.Mask {
	return delta &^ (r.Lt | r.Eq)
}
