package skyline

import (
	"cmp"
	"slices"
	"sync"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// hybridTileSize is α, the number of points processed per tile.
const hybridTileSize = 512

// kernelWord is the lane count of one verdict word of the block kernels: the
// block size of the engine's windows, and what a label group must be able to
// fill (LabelDepth).
const kernelWord = 64

// HybridHooks let a machine model run HybridInstrumented's loop on its own
// workers and charge the work it does, so the model profiles the engine that
// runs rather than a copy of it. All three must be set.
type HybridHooks struct {
	// Spread runs one tile's phase A: probe(w, lo, hi) classifies positions
	// [lo, hi) of tile (indices into rows, in tile order) as worker w, and
	// Spread returns once every position has been probed exactly once. Calls
	// with different w may run concurrently. workers is how many goroutines
	// the engine itself would use: 1 with one thread or no group to probe
	// yet. fanOut(f) is the engine's own split — f(w, lo, hi) for each of
	// those workers, on that many goroutines — for a model that spreads the
	// tile as the engine does.
	Spread func(tile []int32, workers int, probe func(w, lo, hi int), fanOut func(f func(w, lo, hi int)))
	// Group is called once per phase-A visit of worker w, at tile position t,
	// to the group at scan position gi (the id-th group created), with the
	// words BlocksVerdict swept: 0 when the label test decided.
	Group func(w, t, gi, id, sweeps int)
	// Fresh is called once per phase-B point p (an index into rows) with the
	// words swept against the tile's new members.
	Fresh func(p, sweeps int)
}

// HybridInstrumented is the multicore algorithm in the style of Hybrid
// (Chester, Šidlauskas, Assent, Bøgh — ICDE 2015; paper §5.1) as the
// templates hook it into a cuboid, with the work it does reported to h (nil
// for none; Compute and ExtendedSkyline pass nil): a compact, fixed-depth,
// array-based tree of *global* median/quartile pivots replaces the recursive
// SkyTree, and the input is consumed in tiles so threads cooperate on one
// shared, read-mostly result structure. One pass in ascending (δ-sum, row)
// order classifies every point once — strictly dominated, in S⁺_δ \ S_δ, or
// in S_δ — against a window that holds members of S_δ only.
//
// The S-only window is sound because dominance is a strict partial order on a
// finite set: any dominator of p can be replaced by one in S_δ, and a strict
// one by a member s with s ≤ q < p on all of δ, itself strict. So p ∈ S⁺_δ iff
// no member of S_δ strictly dominates p, and p ∈ S_δ iff none dominates it.
//
// The sum order puts every dominator of a point before it, except one whose
// float32 δ-sum ties with the point's. An arriving member therefore evicts the
// equal-sum members it dominates and drops the equal-sum points of S⁺_δ \ S_δ
// it strictly dominates; a tile never ends inside an equal-sum run, so both
// are still in the tile's own structures.
func HybridInstrumented(ds *data.Dataset, rows []int32, delta mask.Mask, threads int, h *HybridHooks) Result {
	threads = max(threads, 1)
	dims := mask.Dims(delta)
	k, n := len(dims), len(rows)
	medM, quartM, sum, ord := hybridPrepare(ds, rows, dims)

	// The members of S_δ found by earlier tiles, one sum-ordered block set per
	// label. No stop point: every lane sums to no more than the probe. Groups
	// are probed in descending order of the points they have dropped so far,
	// so the scan of a point that dies is short; the order changes between
	// tiles only, and a point's verdict does not depend on it.
	type group struct {
		med, quart mask.Mask
		bs         *data.BlockSet
		kills, id  int
	}
	var groups []group
	defer func() {
		for _, g := range groups {
			data.PutBlockSet(g.bs)
		}
	}()
	// This tile's new members, and the points of S⁺_δ \ S_δ that share the
	// current δ-sum. Both hold indices into rows, as ord and st do.
	fresh := data.GetBlockSet(k, kernelWord)
	defer data.PutBlockSet(fresh)
	var extRun []int32

	st := make([]Status, n)
	var tile []int32
	var killer []int32 // by tile position: the group that dropped the point, or -1
	var wg sync.WaitGroup

	// Phase A (parallel, read-only): classify tile[lo:hi] against the groups,
	// with label tests before any dominance test.
	probe := func(w, lo, hi int) {
		var tally dom.KernelTally
		var buf [mask.MaxDims]float32
		pq := buf[:k]
		for t := lo; t < hi; t++ {
			p := tile[t]
			data.ProjectInto(pq, ds.Point(int(rows[p])), dims)
			mp, qp := medM[p], quartM[p]
			v := dom.Undominated
			killer[t] = -1
			for gi := range groups {
				g := &groups[gi]
				// Group members are guaranteed strictly worse than the point
				// on `worse`; if that intersects δ they cannot dominate it.
				worse := compositeStrict2(mp, qp, g.med, g.quart)
				if worse&delta != 0 {
					if h != nil {
						h.Group(w, t, gi, g.id, 0)
					}
					continue
				}
				// Conversely, if the group is guaranteed strictly better on
				// all of δ, the point dies with no DT.
				swept := tally.Sweeps
				better := compositeStrict2(g.med, g.quart, mp, qp)
				if better&delta == delta {
					v = dom.StrictlyDominated
				} else {
					v = max(v, dom.BlocksVerdict(g.bs, pq, &tally))
				}
				if h != nil {
					h.Group(w, t, gi, g.id, int(tally.Sweeps-swept))
				}
				if v == dom.StrictlyDominated {
					killer[t] = int32(gi)
					break
				}
			}
			st[p] = statusOf(v)
		}
		tally.Flush()
	}

	// fanOut runs f over the tile on tn goroutines, each an equal share.
	var tn int
	fanOut := func(f func(w, lo, hi int)) {
		if tn == 1 {
			f(0, 0, len(tile))
			return
		}
		wg.Add(tn)
		for w := 0; w < tn; w++ {
			go func(w, lo, hi int) {
				defer wg.Done()
				f(w, lo, hi)
			}(w, w*len(tile)/tn, (w+1)*len(tile)/tn)
		}
		wg.Wait()
	}

	var tally dom.KernelTally
	var buf [mask.MaxDims]float32
	pq := buf[:k]
	members := 0
	for start := 0; start < n; {
		end := min(start+hybridTileSize, n)
		for end < n && sum[ord[end]] == sum[ord[end-1]] {
			end++
		}
		tile = ord[start:end]
		start = end
		killer = slices.Grow(killer[:0], len(tile))[:len(tile)]

		tn = min(threads, len(tile))
		if len(groups) == 0 {
			tn = 1 // nothing to probe yet: not worth a fork
		}
		if h != nil {
			h.Spread(tile, tn, probe, fanOut)
		} else {
			fanOut(probe)
		}
		for _, gi := range killer {
			if gi >= 0 {
				groups[gi].kills++
			}
		}
		slices.SortStableFunc(groups, func(a, b group) int { return cmp.Compare(b.kills, a.kills) })

		// Phase B (sequential): the tile's undropped points, in sum order,
		// against the tile's own new members.
		for _, p := range tile {
			if st[p] == Dominated {
				continue
			}
			s := sum[p]
			if len(extRun) > 0 && sum[extRun[0]] != s {
				extRun = extRun[:0]
			}
			data.ProjectInto(pq, ds.Point(int(rows[p])), dims)
			swept := tally.Sweeps
			st[p] = min(st[p], statusOf(dom.BlocksVerdict(fresh, pq, &tally)))
			if h != nil {
				h.Fresh(int(p), int(tally.Sweeps-swept))
			}
			switch st[p] {
			case ExtendedOnly:
				extRun = append(extRun, p)
			case InSkyline:
				for _, e := range extRun {
					if st[e] == ExtendedOnly && dom.StrictlyDominatesIn(ds.Point(int(rows[p])), ds.Point(int(rows[e])), delta) {
						st[e] = Dominated
					}
				}
				extRun = evictEqualSumTail(fresh, pq, s, st, extRun)
				fresh.Append(pq, p, s)
			}
		}

		// The surviving new members join their (med, quart) group in sum
		// order, so each group's lanes stay sum-ordered across tiles.
		for _, b := range fresh.Blocks {
			for lane := 0; lane < b.N; lane++ {
				if !b.IsAlive(lane) {
					continue
				}
				p := b.Rows[lane]
				gi := slices.IndexFunc(groups, func(g group) bool { return g.med == medM[p] && g.quart == quartM[p] })
				if gi < 0 {
					gi = len(groups)
					groups = append(groups, group{med: medM[p], quart: quartM[p], bs: data.GetBlockSet(k, kernelWord), id: gi})
				}
				for j, col := range b.Cols {
					pq[j] = col[lane]
				}
				groups[gi].bs.Append(pq, p, b.Sums[lane])
				members++
			}
		}
		fresh.Reset()
	}
	tally.Flush()

	res := Result{Skyline: make([]int32, 0, members), ExtOnly: make([]int32, 0)}
	for p, s := range st {
		switch s {
		case InSkyline:
			res.Skyline = append(res.Skyline, rows[p])
		case ExtendedOnly:
			res.ExtOnly = append(res.ExtOnly, rows[p])
		}
	}
	slices.Sort(res.Skyline)
	slices.Sort(res.ExtOnly)
	return res
}

// statusOf is the status of a point with verdict v against all of S_δ.
func statusOf(v dom.Verdict) Status { return InSkyline - Status(v) }

// evictEqualSumTail moves the members of win that the arriving member pq
// dominates out of S_δ: to S⁺_δ \ S_δ, where they join extRun, or out of S⁺_δ
// when pq dominates them strictly. Only lanes with pq's own δ-sum can qualify
// (a dominated lane's sum is at least its dominator's), and sums are appended
// non-decreasing, so they form a suffix of the window.
func evictEqualSumTail(win *data.BlockSet, pq []float32, psum float32, st []Status, extRun []int32) []int32 {
	for bi := len(win.Blocks) - 1; bi >= 0; bi-- {
		b := win.Blocks[bi]
		for lane := b.N - 1; lane >= 0; lane-- {
			if b.Sums[lane] != psum {
				return extRun
			}
			if !b.IsAlive(lane) || !laneDominatedBy(b, lane, pq, false) {
				continue
			}
			b.Kill(lane)
			q := b.Rows[lane]
			if laneDominatedBy(b, lane, pq, true) {
				st[q] = Dominated
			} else {
				st[q] = ExtendedOnly
				extRun = append(extRun, q)
			}
		}
	}
	return extRun
}

// LabelDepth is the number of pivot levels Hybrid labels a cuboid's points
// with — 0 none, 1 medians, 2 medians and quartiles — for `lanes` input points
// in a subspace of `width` dimensions: the deepest at which the 2^(depth·width)
// possible labels could each fill one 64-lane kernel word. Shallower than
// that, a group is a partial word and a label test saves less than it costs.
func LabelDepth(lanes, width int) int {
	for depth := 2; depth > 0; depth-- {
		if lanes>>uint(depth*width) >= kernelWord {
			return depth
		}
	}
	return 0
}

// hybridPrepare is everything HybridInstrumented does before its first dominance
// test, all of it linear in len(rows): the global labels over only the
// relevant dimensions (§5.1: partition on the subspace's dimensions when
// hooked into a cuboid) to the depth LabelDepth gives — levels not used are
// zero, and depth 0 computes no pivot — each row's δ-sum, and the tile order:
// L1 norm ascending, ties by row for determinism. All four are indexed like
// rows.
func hybridPrepare(ds *data.Dataset, rows []int32, dims []int) (medM, quartM []mask.Mask, sum []float32, ord []int32) {
	n := len(rows)
	medM = make([]mask.Mask, n)
	quartM = make([]mask.Mask, n)
	sum = make([]float32, n)
	depth := LabelDepth(n, len(dims))
	if depth == 0 {
		for k, p := range rows {
			sum[k] = data.SumOver(ds.Point(int(p)), dims)
		}
		return medM, quartM, sum, data.SumOrder(sum, rows)
	}
	med, quart := subspacePivots(ds, rows, dims)
	for k, p := range rows {
		pt := ds.Point(int(p))
		var m, q mask.Mask
		var s float32
		for idx, j := range dims {
			v := pt[j]
			s += v
			half := 1
			if v < med[idx] {
				m |= 1 << uint(j)
				half = 0
			}
			if v < quart[half][idx] {
				q |= 1 << uint(j)
			}
		}
		if depth == 1 { // tested here, not per dimension: the loop above is the prologue's hot one
			q = 0
		}
		medM[k], quartM[k], sum[k] = m, q, s
	}
	return medM, quartM, sum, data.SumOrder(sum, rows)
}

// compositeStrict2 is the two-level label comparison: the subspace on which
// any point labelled (medQ, quartQ) is guaranteed strictly better than any
// point labelled (medP, quartP).
func compositeStrict2(medQ, quartQ, medP, quartP mask.Mask) mask.Mask {
	delta := medQ &^ medP
	sameHalf := ^(medQ ^ medP)
	return delta | (quartQ&^quartP)&sameHalf
}

// subspacePivots computes per-dimension medians and half-relative quartiles
// over the given rows, restricted to dims.
func subspacePivots(ds *data.Dataset, rows []int32, dims []int) (med []float32, quart [2][]float32) {
	med = make([]float32, len(dims))
	quart[0] = make([]float32, len(dims))
	quart[1] = make([]float32, len(dims))
	col := make([]float32, len(rows))
	for idx, j := range dims {
		for i, p := range rows {
			col[i] = ds.Value(int(p), j)
		}
		n := len(col)
		q3 := min(3*n/4, n-1)
		data.SelectRanks(col, n/4, n/2, q3)
		med[idx] = col[n/2]
		quart[0][idx] = col[n/4]
		quart[1][idx] = col[q3]
	}
	return med, quart
}
