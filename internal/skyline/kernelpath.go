// Block-kernel paths of the skyline filters: the same window/merge logic as
// the scalar loops in bnl.go and psky.go, but with candidates held in the
// SoA block layout (internal/data) swept by the branch-free kernels
// (internal/dom), and candidates processed in ascending δ-sum order so
// likely dominators are scanned first and sorted stop points apply.
//
// Every function here is result-identical to its scalar counterpart — the
// skyline of a set does not depend on processing order, both paths return
// rows sorted ascending, and the differential/fuzz harnesses compare them
// bit for bit. dom.UseBlocks picks between them per call; the scalar paths
// remain the small-and-narrow-input fast path and the oracle.
package skyline

import (
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// bnlBlockFilter is bnlFilter over a sum-sorted SoA window. Processing in
// ascending (δ-sum, row) order guarantees a point's dominators — which
// float32-sum to at most the point's own sum — are already in the window
// when the point is tested, except for equal-sum dominators still to come;
// those are handled by the equal-sum tail eviction at append time, mirroring
// scalar BNL's window eviction. For the same reason a stop point cannot fire:
// no window block's MinSum exceeds the probe's sum.
func bnlBlockFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	dims := mask.Dims(delta)
	k := len(dims)
	sums := make([]float32, len(rows))
	for i, r := range rows {
		sums[i] = data.SumOver(ds.Point(int(r)), dims)
	}

	var tally dom.KernelTally
	win := data.GetBlockSet(k, data.DefaultBlockSize)
	defer data.PutBlockSet(win)
	pq := make([]float32, k)
	for _, ii := range data.SumOrder(sums, rows) {
		r := rows[ii]
		data.ProjectInto(pq, ds.Point(int(r)), dims)
		s := sums[ii]
		if dom.BlocksAnyDominator(win, pq, s, strict, false, &tally) {
			continue
		}
		killEqualSumTail(win, pq, s, strict)
		win.Append(pq, r, s)
	}

	out := make([]int32, 0, win.Len())
	for _, b := range win.Blocks {
		for lane := 0; lane < b.N; lane++ {
			if b.IsAlive(lane) {
				out = append(out, b.Rows[lane])
			}
		}
	}
	slices.Sort(out)
	tally.Flush()
	return out
}

// killEqualSumTail evicts window lanes the arriving point pq dominates.
// Only lanes with the same δ-sum can qualify (a dominated lane's sum is at
// least its dominator's), and sums are appended non-decreasing, so they form
// a suffix of the window.
func killEqualSumTail(win *data.BlockSet, pq []float32, psum float32, strict bool) {
	for bi := len(win.Blocks) - 1; bi >= 0; bi-- {
		b := win.Blocks[bi]
		for lane := b.N - 1; lane >= 0; lane-- {
			if b.Sums[lane] != psum {
				return
			}
			if b.IsAlive(lane) && laneDominatedBy(b, lane, pq, strict) {
				b.Kill(lane)
			}
		}
	}
}

// laneDominatedBy reports whether pq dominates the lane's projected point.
func laneDominatedBy(b *data.Block, lane int, pq []float32, strict bool) bool {
	if strict {
		for j := range pq {
			if pq[j] >= b.Cols[j][lane] {
				return false
			}
		}
		return true
	}
	any := false
	for j := range pq {
		v := b.Cols[j][lane]
		if pq[j] > v {
			return false
		}
		if pq[j] < v {
			any = true
		}
	}
	return any
}

// skyMergeBlocks is skyMerge with each side staged as a sum-sorted block
// set: a side's survivors are the points no block of the other side
// dominates, and because the other side is sorted the scan both meets
// likely dominators first and stops at the first block past the query's sum.
func skyMergeBlocks(ds *data.Dataset, a, b []int32, delta mask.Mask, strict bool) []int32 {
	dims := mask.Dims(delta)
	k := len(dims)
	bsA := data.SortedBlocksOf(ds, a, dims, data.DefaultBlockSize)
	defer data.PutBlockSet(bsA)
	bsB := data.SortedBlocksOf(ds, b, dims, data.DefaultBlockSize)
	defer data.PutBlockSet(bsB)

	var tally dom.KernelTally
	pq := make([]float32, k)
	out := make([]int32, 0, len(a)+len(b))
	for _, p := range a {
		pp := ds.Point(int(p))
		data.ProjectInto(pq, pp, dims)
		if !dom.BlocksAnyDominator(bsB, pq, data.SumOver(pp, dims), strict, true, &tally) {
			out = append(out, p)
		}
	}
	for _, p := range b {
		pp := ds.Point(int(p))
		data.ProjectInto(pq, pp, dims)
		if !dom.BlocksAnyDominator(bsA, pq, data.SumOver(pp, dims), strict, true, &tally) {
			out = append(out, p)
		}
	}
	tally.Flush()
	return out
}
