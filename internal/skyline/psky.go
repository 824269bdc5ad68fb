package skyline

import (
	"slices"
	"sync"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// pskyFilter is PSkyline (Park, Kim, Park, Kim, Im — ICDE 2009; paper §3):
// the naive divide-and-conquer multicore skyline. The input is split
// horizontally across threads; each thread computes a local skyline
// sequentially; the local results are then merged pairwise in a reduction
// tree. It serves as the alternative SDSC hook, demonstrating that the
// templates accept any parallel skyline algorithm (§4.2.2), and as the
// baseline the point-based methods are measured against.
func pskyFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, threads int) []int32 {
	if threads < 1 {
		threads = 1
	}
	if threads == 1 || len(rows) < 2*threads {
		return bnlFilter(ds, rows, delta, strict, nil)
	}

	// Map: local skylines of equal slices.
	parts := make([][]int32, threads)
	var wg sync.WaitGroup
	wg.Add(threads)
	for w := 0; w < threads; w++ {
		lo := w * len(rows) / threads
		hi := (w + 1) * len(rows) / threads
		go func(w, lo, hi int) {
			defer wg.Done()
			parts[w] = bnlFilter(ds, rows[lo:hi], delta, strict, nil)
		}(w, lo, hi)
	}
	wg.Wait()

	// Reduce: pairwise skymerge until one list remains. Each round merges
	// disjoint pairs in parallel.
	for len(parts) > 1 {
		next := make([][]int32, (len(parts)+1)/2)
		wg.Add(len(parts) / 2)
		for i := 0; i+1 < len(parts); i += 2 {
			go func(i int) {
				defer wg.Done()
				next[i/2] = skyMerge(ds, parts[i], parts[i+1], delta, strict)
			}(i)
		}
		if len(parts)%2 == 1 {
			next[len(next)-1] = parts[len(parts)-1]
		}
		wg.Wait()
		parts = next
	}
	out := parts[0]
	slices.Sort(out)
	return out
}

// skyMerge merges two local skylines: because each side is already
// internally undominated and dominance is transitive, the skyline of the
// union is exactly the members of each side not dominated by the other. Like
// bnlFilter it compares rows.
func skyMerge(ds *data.Dataset, a, b []int32, delta mask.Mask, strict bool) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for _, p := range a {
		if !killedByAny(ds, b, p, delta, strict) {
			out = append(out, p)
		}
	}
	for _, p := range b {
		if !killedByAny(ds, a, p, delta, strict) {
			out = append(out, p)
		}
	}
	return out
}

func killedByAny(ds *data.Dataset, qs []int32, p int32, delta mask.Mask, strict bool) bool {
	pp := ds.Point(int(p))
	for _, q := range qs {
		if dom.Kills(dom.Compare(ds.Point(int(q)), pp), delta, strict) {
			return true
		}
	}
	return false
}
