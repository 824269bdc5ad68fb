package cluster

import (
	"cmp"
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// candidate is one shard-local skyline member: a global point id and its
// coordinates, shipped together so the coordinator can run dominance tests
// without a second round trip.
type candidate struct {
	id    int32
	point []float32
}

// mergeSkyline reduces the union of shard-local results to the exact global
// skyline of δ with one final dominance filter (the merge step of
// partition-and-merge skyline processing).
//
// Correctness: each shard returns a superset of its partition's
// contribution to the global skyline — a globally undominated point is
// undominated within its shard, so it appears in the shard's local S_δ
// (and a fortiori in its S⁺_δ). Any union member outside the global skyline
// has, by transitivity of Definition-1 dominance, a dominator that IS a
// global skyline member and therefore also in the union, so the filter
// removes exactly the non-members. Ids return sorted ascending, matching
// single-node Skycube.Skyline output.
//
// cands is consumed (sorted and compacted in place), and the result reuses
// scratch's backing array when it is large enough — both slices come from
// the serving path's mergeScratch pool.
func mergeSkyline(cands []candidate, delta mask.Mask, scratch []int32) []int32 {
	// Sort by id and drop duplicates up front (a retried sub-request can in
	// principle deliver a shard's answer twice); dominance-by-duplicate
	// would otherwise be ambiguous under Definition 1's tie handling.
	slices.SortFunc(cands, func(a, b candidate) int { return cmp.Compare(a.id, b.id) })
	uniq := cands[:0]
	for i, c := range cands {
		if i == 0 || c.id != cands[i-1].id {
			uniq = append(uniq, c)
		}
	}
	out := scratch[:0]
	if cap(out) < len(uniq) {
		out = make([]int32, 0, len(uniq))
	}
	if dom.UseBlocks(len(uniq), mask.Count(delta), dom.Probe) {
		return mergeSkylineBlocks(uniq, delta, out)
	}
	return mergeSkylineScalar(uniq, delta, out)
}

// mergeSkylineScalar is the O(n²) form of the final merge filter, for unions
// too small to fill a block; appends the surviving ids to out in uniq order.
func mergeSkylineScalar(uniq []candidate, delta mask.Mask, out []int32) []int32 {
	for i, c := range uniq {
		dominated := false
		for j, q := range uniq {
			if i == j {
				continue
			}
			if dom.DominatesIn(q.point, c.point, delta) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c.id)
		}
	}
	return out
}

// mergeSkylineBlocks is the block-kernel form of the final merge filter:
// the deduplicated union goes into one sum-sorted SoA block set, and each
// candidate asks for any dominator with a sorted stop point. A point never
// dominates itself (all-equal fails Definition 1), so no self-exclusion is
// needed, and the id-ascending output order of the scalar loop is preserved
// because candidates are emitted in uniq order, not scan order.
func mergeSkylineBlocks(uniq []candidate, delta mask.Mask, out []int32) []int32 {
	dims := mask.Dims(delta)
	ids := make([]int32, len(uniq))
	for i, c := range uniq {
		ids[i] = c.id
	}
	bs := data.SortedBlocks(ids, func(i int) []float32 { return uniq[i].point }, dims, data.DefaultBlockSize)
	defer data.PutBlockSet(bs)

	var tally dom.KernelTally
	pq := make([]float32, len(dims))
	for _, c := range uniq {
		data.ProjectInto(pq, c.point, dims)
		if !dom.BlocksAnyDominator(bs, pq, data.SumOver(c.point, dims), false, true, &tally) {
			out = append(out, c.id)
		}
	}
	tally.Flush()
	return out
}
