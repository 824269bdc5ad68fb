package skyline

import (
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// bnlFilter is the window-based block-nested-loop skyline (Börzsönyi et
// al.): each point is compared against the current window of undominated
// candidates; dominated points are dropped, and points dominated by a new
// arrival are evicted. It is the correctness reference and the recursion
// leaf of the pivot algorithm.
func bnlFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	if dom.BlocksEnabled() {
		if len(rows) >= blockMinRows && len(mask.Dims(delta)) >= blockMinDims {
			return bnlBlockFilter(ds, rows, delta, strict)
		}
		scalarFallback()
	}
	window := make([]int32, 0, 16)
	for _, p := range rows {
		pp := ds.Point(int(p))
		dead := false
		w := 0
		for _, q := range window {
			r := dom.Compare(ds.Point(int(q)), pp)
			if kills(r, delta, strict) {
				dead = true
				break
			}
			// Keep q unless p kills it.
			rq := dom.Rel{Lt: invertLt(r, delta), Eq: r.Eq}
			if !kills(rq, delta, strict) {
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

// kills reports whether the relationship r = Compare(q, p) removes p under
// the mode: strict removes on q ≺≺_δ p, otherwise on q ≺_δ p.
func kills(r dom.Rel, delta mask.Mask, strict bool) bool {
	if strict {
		return dom.RelStrictlyDominates(r, delta)
	}
	return dom.RelDominates(r, delta)
}

// invertLt derives B_{p<q} from Compare(q, p) restricted to δ: p < q
// exactly where q is neither less nor equal.
func invertLt(r dom.Rel, delta mask.Mask) mask.Mask {
	return delta &^ (r.Lt | r.Eq)
}
