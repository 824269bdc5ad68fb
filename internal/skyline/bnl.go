package skyline

import (
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// bnlFilter is the window-based block-nested-loop skyline (Börzsönyi et al.):
// each point is compared row by row against the current window of
// undominated candidates; dominated points are dropped, and points dominated
// by a new arrival are evicted. It returns the survivors sorted ascending. It
// is the correctness reference (AlgoBNL) and the recursion leaf of the pivot
// algorithm, so the baselines and the oracle never run the block kernels they
// are measured against. It reports its compares to h (nil for none).
func bnlFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, h *PivotHooks) []int32 {
	window := make([]int32, 0, 16)
	for _, p := range rows {
		pp := ds.Point(int(p))
		dead := false
		w := 0
		for _, q := range window {
			if h != nil {
				h.Compare(q, p)
			}
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
