package skyline

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

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
// runs rather than a copy of it. All four must be set.
type HybridHooks struct {
	// Filter is called once, before phase A, with the rows that survived the
	// pre-filter (hybridPrepare), in input order — all of rows below
	// prologueGrain — and the words the pre-filter swept: one per input row
	// above the grain, none below it. The indices the other hooks take are
	// into these survivors.
	Filter func(survivors []int32, sweeps int)
	// Spread runs one tile's phase A: probe(w, lo, hi) classifies positions
	// [lo, hi) of tile (indices into the survivors, in tile order) as worker
	// w, and Spread returns once every position has been probed exactly once.
	// Calls with different w may run concurrently. workers is how many
	// goroutines the engine itself would use: 1 with one thread or no group
	// to probe yet. fanOut(f) is the engine's own split — f(w, lo, hi) for
	// each of those workers, on that many goroutines — for a model that
	// spreads the tile as the engine does.
	Spread func(tile []int32, workers int, probe func(w, lo, hi int), fanOut func(f func(w, lo, hi int)))
	// Group is called once per phase-A visit of worker w, at tile position t,
	// to the group at scan position gi (the id-th group created), with the
	// words BlocksVerdict swept: 0 when the label test decided.
	Group func(w, t, gi, id, sweeps int)
	// Fresh is called once per phase-B point p (an index into the survivors)
	// with the words swept against the tile's new members.
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
// The pass reads the cuboid hybridPrepare staged, not the dataset: on a
// cuboid of at least prologueGrain rows, only the rows that none of the 64
// with the smallest (δ-sum, row) strictly dominates; inside the engine a
// point is its tile position, the rank of its (δ-sum, row) key among those
// survivors, and so are its statuses, the rows of every block lane and the
// equal-sum run. Only the hooks speak of indices into the survivors. Statuses
// return to input order through the staged inverse of the tile order, which
// for rows in ascending order is already the result's order: no sort. A
// dropped row is strictly dominated, so it is in neither set, and the
// pre-filter changes no other row's status (hybridPrepare).
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
	k := len(dims)
	stage := hybridPrepare(ds, rows, dims, threads)
	defer stagePool.Put(stage)
	if h != nil {
		h.Filter(stage.rows, stage.swept)
	}
	pts, sum, medM, quartM, ord := stage.pts, stage.sum, stage.medM, stage.quartM, stage.ord
	n := len(ord)

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
	// current δ-sum, by tile position.
	fresh := data.GetBlockSet(k, kernelWord)
	defer data.PutBlockSet(fresh)
	var extRun []int32

	st := stage.st
	var first int      // the current tile's first position
	var tile []int32   // ord over the current tile: what the hooks see
	var killer []int32 // by position in the tile: the group that dropped the point, or -1
	var wg sync.WaitGroup

	// Phase A (parallel, read-only): classify tile positions [lo, hi) against
	// the groups, with label tests before any dominance test.
	probe := func(w, lo, hi int) {
		var tally dom.KernelTally
		for t := lo; t < hi; t++ {
			p := first + t
			pq := staged(pts, k, p)
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
	members := 0
	for start := 0; start < n; {
		end := min(start+hybridTileSize, n)
		for end < n && sum[end] == sum[end-1] {
			end++
		}
		first, tile = start, ord[start:end]
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
		for p := first; p < end; p++ {
			if st[p] == Dominated {
				continue
			}
			s := sum[p]
			if len(extRun) > 0 && sum[extRun[0]] != s {
				extRun = extRun[:0]
			}
			pq := staged(pts, k, p)
			swept := tally.Sweeps
			st[p] = min(st[p], statusOf(dom.BlocksVerdict(fresh, pq, &tally)))
			if h != nil {
				h.Fresh(int(ord[p]), int(tally.Sweeps-swept))
			}
			switch st[p] {
			case ExtendedOnly:
				extRun = append(extRun, int32(p))
			case InSkyline:
				for _, e := range extRun {
					if st[e] == ExtendedOnly && strictlyBelow(pq, staged(pts, k, int(e))) {
						st[e] = Dominated
					}
				}
				extRun = evictEqualSumTail(fresh, pq, s, st, extRun)
				fresh.Append(pq, int32(p), s)
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
				groups[gi].bs.Append(staged(pts, k, int(p)), p, b.Sums[lane])
				members++
			}
		}
		fresh.Reset()
	}
	tally.Flush()

	res := Result{Skyline: make([]int32, 0, members), ExtOnly: make([]int32, 0)}
	for i, p := range stage.pos {
		switch st[p] {
		case InSkyline:
			res.Skyline = append(res.Skyline, stage.rows[i])
		case ExtendedOnly:
			res.ExtOnly = append(res.ExtOnly, stage.rows[i])
		}
	}
	if !slices.IsSorted(stage.rows) {
		slices.Sort(res.Skyline)
		slices.Sort(res.ExtOnly)
	}
	return res
}

// staged is position p's coordinates in the point-major pts of width k.
func staged(pts []float32, k, p int) []float32 { return pts[p*k : p*k+k : p*k+k] }

// strictlyBelow reports whether a is smaller than b on every coordinate: a
// strictly dominates b in the projection both are staged in.
func strictlyBelow(a, b []float32) bool {
	for j, v := range a {
		if !(v < b[j]) {
			return false
		}
	}
	return true
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
			if !b.IsAlive(lane) {
				continue
			}
			less := 0 // the columns pq is < the lane on; -1 once it is > on one
			for j, col := range b.Cols {
				if pq[j] > col[lane] {
					less = -1
					break
				}
				if pq[j] < col[lane] {
					less++
				}
			}
			if less <= 0 {
				continue
			}
			b.Kill(lane)
			q := b.Rows[lane]
			if less == len(b.Cols) {
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

// hybridStage is a cuboid as HybridInstrumented reads it. pts, sum, the
// labels, ord and st are indexed by tile position, a survivor's rank in the
// ascending (δ-sum, row) order; pos and rowSum by index into rows, the
// survivors. Stages are pooled, so a build's many cuboids reuse the same
// buffers.
type hybridStage struct {
	pts          []float32   // point-major projections: position t's k coordinates at pts[t·k:]
	sum          []float32   // δ-sums
	medM, quartM []mask.Mask // labels, zero on the levels LabelDepth leaves out
	ord          []int32     // the index into rows at each position: the tile order
	pos          []int32     // ord's inverse: the position of rows[i]
	st           []Status    // the engine's verdicts

	rows   []int32   // the pre-filter's survivors in input order; the input itself below prologueGrain
	swept  int       // the words the pre-filter swept
	rowSum []float32 // δ-sums in input order, then in rows order: the key of the tile order
	kept   []int32   // rows' buffer above prologueGrain
	cands  []repKey  // the pre-filter's candidate representatives, kernelWord per goroutine
	counts []int     // per pre-filter goroutine: its candidates, then its survivors
	radix  []uint64  // data.SumOrderInto's scratch
	cols   []float32 // the pivot columns: the first PivotRows values of each dimension
	med    [mask.MaxDims]float32
	quart  [2][mask.MaxDims]float32
}

var stagePool = sync.Pool{New: func() any { return new(hybridStage) }}

// prologueGrain is the fewest points a prologue pass hands one goroutine:
// enough to fill a kernel word of tiles. A pass over that many points takes
// tens of microseconds, the fork and join of its goroutines a few. It is also
// the smallest cuboid hybridPrepare pre-filters, and the most input rows its
// pivots are selected from.
const prologueGrain = kernelWord * hybridTileSize

// PrologueWorkers is the number of goroutines on which HybridInstrumented
// runs each linear pass of its prologue over n points with the given
// threads: one per prologueGrain points, at most threads, at least one. So
// STSC's one-thread cuboids never fork, and SDSC and MDMC fork on large
// cuboids only.
func PrologueWorkers(n, threads int) int {
	return max(1, min(threads, n/prologueGrain))
}

// PivotRows is how many of a cuboid's n input rows, from the first,
// HybridInstrumented selects its pivots from: at most prologueGrain, so above
// the grain selection costs the same for any n.
func PivotRows(n int) int { return min(n, prologueGrain) }

// forRanges runs f(w, lo, hi) over [0, n) split into workers contiguous
// ranges, on that many goroutines (the caller's among them), and returns when
// all are done.
func forRanges(n, workers int, f func(w, lo, hi int)) {
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			f(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	f(0, 0, n/workers)
	wg.Wait()
}

// resize returns s with length n, reallocated only when too small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// hybridPrepare is everything HybridInstrumented does before its first
// dominance test of phase A, all of it linear in len(rows), and all of it but
// the tile order's radix passes over the engine's threads on large cuboids
// (PrologueWorkers). It stages the cuboid once:
//
//  1. each row's δ-sum, reading the dataset in row order, and when there
//     are labels a copy of the first PivotRows rows' coordinates, one
//     column per dimension;
//  2. on a cuboid of at least prologueGrain rows, the pre-filter
//     (preFilter): every row that one of the kernelWord rows with the
//     smallest (δ-sum, row) strictly dominates is dropped, and the steps below
//     run over the survivors only;
//  3. the tile order: (δ-sum, row) ascending, data.SumOrderInto;
//  4. its inverse, and a scatter of each survivor's projection onto the
//     relevant dimensions (§5.1: partition on the subspace's dimensions when
//     hooked into a cuboid) and δ-sum to its tile position — the dataset is
//     again read in row order, and its rows never again;
//  5. the global pivots to the depth LabelDepth gives for len(rows), one
//     selection per dimension in its column (depth 0 computes none);
//  6. the labels, over the staged points in tile order.
//
// The pre-filter is sound because strict dominance is a strict partial order:
// a dropped row has a representative strictly below it, and following
// strict dominance among the representatives ends at one that is kept, itself
// strictly below the row. So a dropped row is in neither S_δ nor S⁺_δ, and a
// row it dominates is strictly dominated by that kept representative too: no
// survivor's status changes. Pivots and depth come from the input, not the
// survivors: on some inputs the survivors are too few for the input's depth,
// and a flat phase A sweeps several times the words (DESIGN §5, decision
// 12). Below the grain every row survives and the pivots are those of all of
// rows.
//
// Phases A and B then read each point's coordinates from one short run of
// pts at its position instead of gathering d-wide rows through rows, as
// Hybrid's presorted copy of the data does (§5.1, and §6.1's coalescing
// argument). The caller returns the stage to stagePool.
func hybridPrepare(ds *data.Dataset, rows []int32, dims []int, threads int) *hybridStage {
	n, k, d := len(rows), len(dims), ds.Dims
	s := stagePool.Get().(*hybridStage)
	s.rowSum = resize(s.rowSum, n)
	workers := PrologueWorkers(n, threads)
	vals := ds.Vals

	// The pivot columns are copied out of the first PivotRows(n) rows as the
	// δ-sums read them: dimension idx at cols[idx·prefix:].
	depth, prefix := LabelDepth(n, k), 0
	if depth > 0 {
		prefix = PivotRows(n)
	}
	s.cols = resize(s.cols, k*prefix)
	forRanges(n, workers, func(_, lo, hi int) {
		mid := min(max(lo, prefix), hi)
		for i := lo; i < mid; i++ {
			row := vals[int(rows[i])*d:]
			var sum float32
			for idx, j := range dims {
				sum += row[j]
				s.cols[idx*prefix+i] = row[j]
			}
			s.rowSum[i] = sum
		}
		for i := mid; i < hi; i++ {
			row := vals[int(rows[i])*d:]
			var sum float32
			for _, j := range dims {
				sum += row[j]
			}
			s.rowSum[i] = sum
		}
	})
	s.rows, s.swept = rows, 0
	if n >= prologueGrain {
		s.preFilter(ds, rows, dims, workers)
	}

	kept := len(s.rows)
	s.pts = resize(s.pts, kept*k)
	s.sum = resize(s.sum, kept)
	s.medM = resize(s.medM, kept)
	s.quartM = resize(s.quartM, kept)
	s.ord = resize(s.ord, kept)
	s.pos = resize(s.pos, kept)
	s.st = resize(s.st, kept)
	s.radix = resize(s.radix, 2*kept)
	keptWorkers := PrologueWorkers(kept, threads)
	data.SumOrderInto(s.ord, s.radix, s.rowSum, s.rows)
	forRanges(kept, keptWorkers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			s.pos[s.ord[t]] = int32(t)
		}
	})
	forRanges(kept, keptWorkers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t := int(s.pos[i])
			row, dst := vals[int(s.rows[i])*d:], s.pts[t*k:t*k+k]
			for idx, j := range dims {
				dst[idx] = row[j]
			}
			s.sum[t] = s.rowSum[i]
		}
	})

	if depth == 0 {
		clear(s.medM)
		clear(s.quartM)
		return s
	}
	s.pivots(prefix, k, min(workers, k))
	forRanges(kept, keptWorkers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			var m, q mask.Mask
			for idx, v := range s.pts[t*k : t*k+k] {
				bit := mask.Mask(1) << uint(dims[idx])
				half := 1
				if v < s.med[idx] {
					m |= bit
					half = 0
				}
				if v < s.quart[half][idx] {
					q |= bit
				}
			}
			if depth == 1 { // tested here, not per dimension: the loop above is the prologue's hot one
				q = 0
			}
			s.medM[t], s.quartM[t] = m, q
		}
	})
	return s
}

// repKey is a candidate representative of the pre-filter: a row and its
// δ-sum, ordered by (δ-sum, row) as the tile order is.
type repKey struct {
	sum float32
	row int32
}

func (a repKey) less(b repKey) bool {
	return a.sum < b.sum || a.sum == b.sum && a.row < b.row
}

// preFilter keeps, in s.rows and s.rowSum and in input order, the rows that
// none of the representatives strictly dominates: the kernelWord rows of
// smallest (δ-sum, row), one block word. Each goroutine keeps the kernelWord
// smallest keys of its range and the representatives are the smallest of
// those, so neither they nor the survivors depend on workers. Each row then
// costs one strict dom.AnyDominatorIn sweep of the representatives' word.
func (s *hybridStage) preFilter(ds *data.Dataset, rows []int32, dims []int, workers int) {
	n, k, d := len(rows), len(dims), ds.Dims
	vals := ds.Vals
	s.cands = resize(s.cands, workers*kernelWord)
	s.counts = resize(s.counts, workers)
	forRanges(n, workers, func(w, lo, hi int) {
		best := s.cands[w*kernelWord : w*kernelWord : (w+1)*kernelWord]
		for i := lo; i < hi; i++ {
			c := repKey{s.rowSum[i], rows[i]}
			if len(best) == kernelWord {
				if !c.less(best[kernelWord-1]) {
					continue
				}
				best = best[:kernelWord-1]
			}
			j := len(best)
			best = append(best, c)
			for ; j > 0 && c.less(best[j-1]); j-- {
				best[j] = best[j-1]
			}
			best[j] = c
		}
		s.counts[w] = len(best)
	})
	cands := s.cands[:0]
	for w, c := range s.counts {
		cands = append(cands, s.cands[w*kernelWord:w*kernelWord+c]...)
	}
	slices.SortFunc(cands, func(a, b repKey) int { return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.row, b.row)) })

	reps := data.GetBlockSet(k, kernelWord)
	defer data.PutBlockSet(reps)
	var pq [mask.MaxDims]float32
	for _, c := range cands[:min(len(cands), kernelWord)] {
		data.ProjectInto(pq[:], vals[int(c.row)*d:], dims)
		reps.Append(pq[:k], c.row, c.sum)
	}
	word := reps.Blocks[0]

	s.kept = resize(s.kept, n)
	var swept atomic.Int64
	forRanges(n, workers, func(w, lo, hi int) {
		var tally dom.KernelTally
		var pq [mask.MaxDims]float32
		kept := lo
		for i := lo; i < hi; i++ {
			data.ProjectInto(pq[:], vals[int(rows[i])*d:], dims)
			if dom.AnyDominatorIn(word, pq[:k], true, &tally) {
				continue
			}
			s.kept[kept], s.rowSum[kept] = rows[i], s.rowSum[i]
			kept++
		}
		s.counts[w] = kept - lo
		swept.Add(int64(tally.Sweeps))
		tally.Flush()
	})
	m := 0
	for w, c := range s.counts {
		lo := w * n / workers
		copy(s.rowSum[m:], s.rowSum[lo:lo+c])
		m += copy(s.kept[m:], s.kept[lo:lo+c])
	}
	s.rows, s.rowSum, s.swept = s.kept[:m], s.rowSum[:m], int(swept.Load())
}

// pivots sets the stage's per-dimension medians and half-relative quartiles
// of its k pivot columns of n values each, selecting in place, the dimensions
// spread over workers goroutines. Selection depends on a column's values
// only, not their order.
func (s *hybridStage) pivots(n, k, workers int) {
	q3 := min(3*n/4, n-1)
	forRanges(k, workers, func(_, lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			col := s.cols[idx*n : (idx+1)*n]
			data.SelectRanks(col, n/4, n/2, q3)
			s.med[idx], s.quart[0][idx], s.quart[1][idx] = col[n/2], col[n/4], col[q3]
		}
	})
}

// compositeStrict2 is the two-level label comparison: the subspace on which
// any point labelled (medQ, quartQ) is guaranteed strictly better than any
// point labelled (medP, quartP).
func compositeStrict2(medQ, quartQ, medP, quartP mask.Mask) mask.Mask {
	delta := medQ &^ medP
	sameHalf := ^(medQ ^ medP)
	return delta | (quartQ&^quartP)&sameHalf
}
