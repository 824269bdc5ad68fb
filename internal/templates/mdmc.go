package templates

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/hashcube"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
	"skycube/internal/stree"
)

// MDMCOptions configure the point-bitmask template and its CPU kernel.
type MDMCOptions struct {
	Options
	// TreeDepth is 3 (the paper's octile-extended tree) or 2 (SkyAlign's);
	// 0 defaults to 3. Exposed for the tree-depth ablation.
	TreeDepth int
	// DisableFilter skips the filter phase entirely (refine-only ablation).
	DisableFilter bool
	// DisableMemo disables the seen-mask memoisation of refine (ablation of
	// the O(n·(2^d+n)) improvement, §4.3).
	DisableMemo bool
}

// MDMCContext is the shared, read-only state of one MDMC run: the static
// tree over S⁺(P) and the output HashCube. It is what the template shares
// across devices (paper §4.3): built once, then consumed by any number of
// point kernels in parallel.
type MDMCContext struct {
	Tree *stree.Tree
	// OrigRow maps a tree (sorted) position to the input-dataset row id —
	// the id inserted into the HashCube.
	OrigRow []int32
	D       int
	// MaxLevel is the partial-computation bound d′ (App. A.2): refine skips
	// verification of subspaces with |δ| > MaxLevel.
	MaxLevel int
	// FilterLevel is how many tree levels the CPU filter reads, derived from
	// the tree by filterLevel: 3 (the leaf columns) or 2 (the L2 columns).
	FilterLevel int
	Cube        *hashcube.HashCube
	// ExtRows are the rows of S⁺(P) in the input dataset (ascending).
	ExtRows []int32
}

// NumTasks returns the number of data-parallel point tasks, |S⁺(P)|.
func (c *MDMCContext) NumTasks() int { return c.Tree.Data.N }

// PointKernel processes the point tasks at sorted positions [lo, hi),
// computing each point's B_{p∉S} and inserting it into ctx.Cube. It is the
// architecture-specific hook pair (filter + refine) of the MDMC template.
type PointKernel func(ctx *MDMCContext, lo, hi int)

// PrepareMDMC performs the template's shared prologue (Algorithm 3 line 2):
// compute S⁺(P) in parallel, then build the static global tree over it.
func PrepareMDMC(ds *data.Dataset, threads, treeDepth, maxLevel int) *MDMCContext {
	return PrepareMDMCTraced(ds, threads, treeDepth, maxLevel, nil)
}

// PrepareMDMCTraced is PrepareMDMC recording the prologue's two phases —
// the parallel extended-skyline computation and the static tree build — as
// spans on the "prepare" track.
func PrepareMDMCTraced(ds *data.Dataset, threads, treeDepth, maxLevel int, tr *obs.Trace) *MDMCContext {
	if treeDepth == 0 {
		treeDepth = 3
	}
	if maxLevel <= 0 || maxLevel > ds.Dims {
		maxLevel = ds.Dims
	}
	full := mask.Full(ds.Dims)
	h := tr.Begin("prepare", obs.CatPrepare, "extended-skyline")
	h.SetN(int64(ds.N))
	ext := skyline.ExtendedSkyline(ds, nil, full, skyline.AlgoHybrid, threads)
	h.End()
	intRows := make([]int, len(ext))
	for i, r := range ext {
		intRows[i] = int(r)
	}
	h = tr.Begin("prepare", obs.CatPrepare, "static-tree")
	h.SetN(int64(len(ext)))
	sub := ds.Subset(intRows)
	tree := stree.Build(sub, treeDepth)
	orig := make([]int32, len(ext))
	for pos, subRow := range tree.SrcRow {
		orig[pos] = ext[subRow]
	}
	h.End()
	return &MDMCContext{
		Tree:        tree,
		OrigRow:     orig,
		D:           ds.Dims,
		MaxLevel:    maxLevel,
		FilterLevel: filterLevel(tree),
		Cube:        hashcube.New(ds.Dims),
		ExtRows:     ext,
	}
}

// filterLevel is the level the CPU filter reads on tree t (DESIGN §5,
// decision 2): the leaf columns while there are fewer than two leaves per L2
// node, where their sweep costs less than twice the L2 columns' and their
// octile labels prove more, and the L2 columns otherwise (§5.2).
func filterLevel(t *stree.Tree) int {
	if t.Depth == 3 && len(t.Leaves) < 2*len(t.L2) {
		return 3
	}
	return 2
}

// Grab hands the next chunk of point tasks to a worker lane, returning
// lo == hi when the queue is exhausted. It is the template's task-pulling
// protocol (§4.3): the lane identifies the puller (a CPU worker index or 0
// for a single-puller GPU) so a scheduler can attribute and size grabs per
// consumer. Implementations must hand out disjoint ranges whose union is
// exactly [0, NumTasks) — the differential and chaos tests enforce this.
type Grab func(lane int) (lo, hi int)

// DefaultPointChunk is the static grab size of the plain CPU template run.
const DefaultPointChunk = 64

// CounterGrab returns the template's baseline grab source: fixed-size
// chunks handed out by a shared atomic counter.
func CounterGrab(n, chunk int) Grab {
	if chunk < 1 {
		chunk = DefaultPointChunk
	}
	var next int64
	return func(int) (int, int) {
		lo := int(atomic.AddInt64(&next, int64(chunk))) - chunk
		if lo >= n {
			return n, n
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return lo, hi
	}
}

// RunMDMC drives a kernel over all point tasks with the given worker count,
// handing out fixed-size chunks from an atomic counter — the template's
// synchronisation-free data parallelism — and recording one span per
// completed chunk on a per-worker track ("cpu-0", "cpu-1", …). With a nil
// trace the only cost is a pointer test per chunk.
func RunMDMC(ctx *MDMCContext, kernel PointKernel, workers int, tr *obs.Trace) {
	grab := CounterGrab(ctx.NumTasks(), DefaultPointChunk)
	RunMDMCGrab(ctx, kernel, workers, grab, func(lane, n int, dur time.Duration) {
		if tr != nil {
			tr.Record(fmt.Sprintf("cpu-%d", lane), obs.CatChunk, "points", dur, int64(n))
		}
	})
}

// RunMDMCGrab drives a kernel with workers independent pullers consuming an
// arbitrary grab source — the generalised form of the MDMC drain loop that
// the cross-device scheduler (internal/hetero) plugs each device's grabs
// off its common queue into. account, if non-nil, is told the lane, size
// and wall time of every completed chunk.
func RunMDMCGrab(ctx *MDMCContext, kernel PointKernel, workers int, grab Grab,
	account func(lane, n int, dur time.Duration)) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo, hi := grab(w)
				if lo >= hi {
					return
				}
				start := time.Now()
				kernel(ctx, lo, hi)
				if account != nil {
					account(w, hi-lo, time.Since(start))
				}
			}
		}(w)
	}
	wg.Wait()
}

// MDMCResult is the output of an MDMC build.
type MDMCResult struct {
	Cube *hashcube.HashCube
	// ExtRows are the rows of S⁺(P); every other row is in no subspace
	// skyline and is therefore absent from the cube.
	ExtRows []int32
}

// MDMC is the multicore CPU specialisation of the MDMC template.
func MDMC(ds *data.Dataset, opt MDMCOptions) *MDMCResult {
	ctx := PrepareMDMCTraced(ds, opt.threads(), opt.TreeDepth, opt.MaxLevel, opt.Trace)
	RunMDMC(ctx, CPUPointKernel(opt), opt.threads(), opt.Trace)
	return &MDMCResult{Cube: ctx.Cube, ExtRows: ctx.ExtRows}
}

// CPUPointKernel returns the CPU filter/refine hook of §5.2. Per point p:
//
//   - Filter: sweep the label columns of the tree level ctx.FilterLevel,
//     deriving from path labels alone subspaces in which some tree node's
//     points strictly dominate p, and set all their submasks. No data points
//     are loaded.
//   - Refine: sweep the leaf label columns; a leaf is skipped when everything
//     it could contribute is already known (its optimistic mask is strictly
//     dominated). Otherwise each leaf point gets one DT whose (B_{q<p},
//     B_{q=p}) masks are expanded into the solution bitsets, memoised so each
//     distinct mask is processed once.
//
// Both sweeps test 64 tree entries per dom.LabelWord call (see Solution.refine
// for why that changes no bit and no DT of an entry-by-entry walk). The
// chunk's finished B_{p∉S} rows go into the cube in one insert; the task state
// and the rows buffer are reused from chunk to chunk.
func CPUPointKernel(opt MDMCOptions) PointKernel {
	type scratch struct {
		k    *Solution
		rows []uint64
	}
	var pool sync.Pool
	return func(ctx *MDMCContext, lo, hi int) {
		s, _ := pool.Get().(*scratch)
		if s == nil || s.k.ctx != ctx {
			s = &scratch{k: NewSolution(ctx)}
		}
		defer pool.Put(s)
		k, stride := s.k, ctx.Cube.Stride()
		if need := (hi - lo) * stride; cap(s.rows) < need {
			s.rows = make([]uint64, need)
		}
		rows := s.rows[:(hi-lo)*stride]
		for p := lo; p < hi; p++ {
			k.Reset()
			if !opt.DisableFilter {
				k.Filter(p, ctx.FilterLevel)
			}
			k.Refine(p, !opt.DisableMemo)
			copy(rows[(p-lo)*stride:], k.NotInS().Words64())
		}
		ctx.Cube.Insert(ctx.OrigRow[lo:hi], rows)
		k.FlushKernelTally()
	}
}

// Solution is the per-task state of Algorithm 3: the two solution bitmasks
// B_{p∉S} and B_{p∉S⁺} (2^d − 1 bits each) plus the remaining-subspace
// counter that provides early exit. On the CPU this is per-worker scratch;
// the GPU specialisation places it in simulated shared memory and wraps
// these same updates with device accounting.
type Solution struct {
	ctx        *MDMCContext
	notInS     *bitset.Set // B_{p∉S}: bit δ−1 set iff p dominated in δ
	notInSPlus *bitset.Set // B_{p∉S⁺}: bit δ−1 set iff p strictly dominated in δ
	// remaining counts subspaces with |δ| ≤ MaxLevel not yet set in notInS;
	// when it reaches zero the point's fate is fully decided. relevant holds
	// those subspaces.
	remaining int
	relevant  *bitset.Set
	// empty is the always-empty set a refine without memoisation sweeps
	// against, allocated by the first one.
	empty []uint64
	// tally batches kernel counter updates (one sweep per label word);
	// FlushKernelTally publishes them.
	tally dom.KernelTally
	// xs holds the masks of the label word last swept (dom.LabelWord).
	xs [64]mask.Mask
}

// FlushKernelTally publishes the solution's batched kernel counters. The
// point-kernel drivers call it once per chunk of point tasks.
func (k *Solution) FlushKernelTally() { k.tally.Flush() }

// NewSolution allocates task state for one worker of ctx's run.
func NewSolution(ctx *MDMCContext) *Solution {
	n := mask.NumSubspaces(ctx.D)
	relevant := bitset.New(n)
	for delta := 1; delta <= n; delta++ {
		if mask.Count(mask.Mask(delta)) <= ctx.MaxLevel {
			relevant.Set(delta - 1)
		}
	}
	return &Solution{
		ctx:        ctx,
		notInS:     bitset.New(n),
		notInSPlus: bitset.New(n),
		relevant:   relevant,
	}
}

// NotInS exposes the finished B_{p∉S} for HashCube insertion.
func (k *Solution) NotInS() *bitset.Set { return k.notInS }

// Remaining reports how many relevant subspaces are still undecided.
func (k *Solution) Remaining() int { return k.remaining }

// StateBytes returns the shared-memory footprint of one task's state: two
// bitmasks of 2^d − 1 bits (§6.2), each rounded up to whole bytes.
func StateBytes(d int) int { return 2 * (((1 << uint(d)) - 1 + 7) / 8) }

// Reset prepares the state for a new point task.
func (k *Solution) Reset() {
	k.notInS.Reset()
	k.notInSPlus.Reset()
	k.remaining = k.relevant.Count()
}

// SetStrict marks p as strictly dominated in δ and all δ's submasks.
// B_{p∉S⁺} is closed under submasks, so δ's own bit says whether there is
// anything to add.
func (k *Solution) SetStrict(delta mask.Mask) {
	if delta == 0 || k.notInSPlus.Test(int(delta)-1) {
		return
	}
	k.notInSPlus.OrDownset(delta, 0, nil, nil)
	k.remaining -= k.notInS.OrDownset(delta, 0, nil, k.relevant)
}

// Filter is the CPU filter hook (§5.2): sweep the quartile-level label
// columns (the leaf columns if levels == 3), combining median- and quartile-
// label information (and octile) into guaranteed-strict-dominance subspaces.
// Only path labels are read — never data points.
func (k *Solution) Filter(p int, levels int) {
	k.FilterInstrumented(p, levels, nil)
}

// FilterInstrumented is Filter with an accounting callback: onNode, if
// non-nil, is told every entry the sweep reads — L2 nodes (level 2), or
// leaves (level 3) when the filter reads three levels — by index, with the
// subspace the entry contributes.
func (k *Solution) FilterInstrumented(p int, levels int, onNode func(level, i int, delta mask.Mask)) {
	t := k.ctx.Tree
	k.filter(t.Med[p], t.Quart[p], t.Oct[p], levels, nil, onNode)
}

// FilterExternal is the filter phase for a point identified by its path
// labels alone — typically a point outside the tree, routed through the
// retained pivots with Tree.Route. This is what turns an incremental insert
// into a single-point MDMC task: the shared static tree filters the new
// point exactly as it would have filtered a build-time point.
//
// leafAlive, if non-nil, reports whether tree leaf li still holds at least
// one live point. The filter's dominance claims quantify over every point
// of a node, so a node whose points have all been deleted proves nothing;
// with the callback set, an entry counts only if one of its leaves is alive.
func (k *Solution) FilterExternal(medP, quartP, octP mask.Mask, levels int, leafAlive func(li int) bool) {
	k.filter(medP, quartP, octP, levels, leafAlive, nil)
}

// filter is the one walk behind Filter, FilterInstrumented and
// FilterExternal: a word sweep over the columns of the deepest level read.
// What it leaves is the union of the entries' downsets whatever the order, so
// visiting only the lanes live at their word's start loses nothing:
// SetStrict on any other lane is a no-op then, and still is at its turn,
// since B_{p∉S⁺} only grows.
func (k *Solution) filter(medP, quartP, octP mask.Mask, levels int,
	leafAlive func(li int) bool, onNode func(level, i int, delta mask.Mask)) {
	t := k.ctx.Tree
	level, n := 2, len(t.L2)
	med, quart, oct := t.L2Med, t.L2Quart, t.L2Quart // two levels: the third column is not looked at
	if levels >= 3 && t.Depth == 3 {
		level, n = 3, len(t.Leaves)
		med, quart, oct = t.LeafMed, t.LeafQuart, t.LeafOct
	}
	sel := dom.FilterSel(medP, quartP, octP, level, mask.Full(k.ctx.D))
	seen := k.notInSPlus.Words64()
	for w := 0; w<<6 < n; w++ {
		k.tally.Sweeps++
		visit := dom.LabelWord(med, quart, oct, w, &sel, seen, &k.xs)
		if onNode != nil {
			visit = ^uint64(0)
		}
		for visit &= wordLanes(n, w); visit != 0; visit &= visit - 1 {
			lane := bits.TrailingZeros64(visit)
			i, delta := w<<6+lane, k.xs[lane]
			if onNode != nil {
				onNode(level, i, delta)
			}
			if leafAlive != nil && !k.anyLeafAlive(level, i, leafAlive) {
				continue
			}
			k.SetStrict(delta)
		}
	}
}

// anyLeafAlive reports whether entry i of the given level — a leaf, or an L2
// node standing for its leaves — still has a leaf with a live point.
func (k *Solution) anyLeafAlive(level, i int, leafAlive func(li int) bool) bool {
	if level == 3 {
		return leafAlive(i)
	}
	lc := k.ctx.Tree.L2Child[i]
	for li := lc[0]; li < lc[1]; li++ {
		if leafAlive(int(li)) {
			return true
		}
	}
	return false
}

// wordLanes is the mask of the lanes of word w that hold one of n entries.
func wordLanes(n, w int) uint64 {
	if rest := n - w<<6; rest < 64 {
		return 1<<uint(rest) - 1
	}
	return ^uint64(0)
}

// Refine is the refine hook: leaf scan with label-based skipping, exact
// DTs, and seen-mask memoisation.
func (k *Solution) Refine(p int, memo bool) {
	k.RefineInstrumented(p, memo, nil, nil)
}

// RefineInstrumented is Refine with accounting callbacks for device models
// and exact counts: onLeaf, if non-nil, is told of every leaf the scan
// reaches, in order, and whether it was skipped; onDT fires before every
// dominance test.
func (k *Solution) RefineInstrumented(p int, memo bool, onLeaf func(skipped bool), onDT func()) {
	t := k.ctx.Tree
	k.refine(t.Data.Point(p), p, t.Med[p], t.Quart[p], t.Oct[p], memo, nil, onLeaf, onDT)
}

// RefineExternal is the refine hook for a point outside the tree: exact
// DTs of the tree's points against coordinates pp, with the same
// optimistic-mask leaf skipping and seen-mask memoisation as Refine. The
// leaf-skip comparison runs on pp's routed path labels (Tree.Route), so an
// external point prunes exactly as well as a build-time one.
//
// alive, if non-nil, reports whether the point at sorted position q is
// still live; deleted points must not contribute dominance. Callers with
// live points outside the tree (later incremental inserts) extend the
// solution with ApplyDT per extra point, checking Remaining for early exit.
func (k *Solution) RefineExternal(pp []float32, medP, quartP, octP mask.Mask, memo bool, alive func(q int) bool) {
	k.refine(pp, -1, medP, quartP, octP, memo, alive, nil, nil)
}

// refine is the one walk behind Refine, RefineInstrumented and
// RefineExternal. self is the task point's own sorted position (−1 for an
// external point): a self-DT conveys nothing.
//
// A leaf is worth its DTs only while its optimistic mask — the dimensions on
// which its points might be ≤ p, from labels alone — is not yet in B_{p∉S⁺}:
// otherwise every contribution it could make is a submask of something
// recorded. The walk tests 64 leaves per dom.LabelWord call and then visits
// the live lanes in order, and that is exactly the leaf-by-leaf walk:
// B_{p∉S⁺} only grows during a task, so a lane that is not live when its word
// is swept would not be live at its turn either, and a lane that is live is
// tested again at its turn — its mask as the sweep stored it, against the set
// as the DTs before it in the same word left it. Same leaves entered in the same order, hence the same DTs,
// the same OrDownset calls and the same early exits on remaining.
func (k *Solution) refine(pp []float32, self int, medP, quartP, octP mask.Mask, memo bool,
	alive func(q int) bool, onLeaf func(skipped bool), onDT func()) {
	t := k.ctx.Tree
	ds := t.Data
	full := mask.Full(k.ctx.D)
	if t.Depth < 3 {
		octP = 0
	}
	sel := dom.RefineSel(medP, quartP, octP, full)
	seen := k.notInSPlus.Words64()
	if !memo {
		// Without memoisation a leaf is skipped only when its mask is empty.
		if k.empty == nil {
			k.empty = make([]uint64, len(seen))
		}
		seen = k.empty
	}
	n := len(t.Leaves)
	for w := 0; w<<6 < n && k.remaining > 0; w++ {
		k.tally.Sweeps++
		live := dom.LabelWord(t.LeafMed, t.LeafQuart, t.LeafOct, w, &sel, seen, &k.xs)
		visit := live
		if onLeaf != nil {
			visit = ^uint64(0)
		}
		for visit &= wordLanes(n, w); visit != 0; visit &= visit - 1 {
			lane := bits.TrailingZeros64(visit)
			li := w<<6 + lane
			skip := live>>uint(lane)&1 == 0
			if !skip && memo {
				skip = k.notInSPlus.Test(int(k.xs[lane]) - 1) // the optimistic mask
			}
			if onLeaf != nil {
				onLeaf(skip)
			}
			if skip {
				continue
			}
			lf := t.Leaves[li]
			for q := int(lf.Start); q < int(lf.End); q++ {
				if q == self || (alive != nil && !alive(q)) {
					continue
				}
				if onDT != nil {
					onDT()
				}
				k.ApplyDT(ds.Point(q), pp, full, memo)
				if k.remaining == 0 {
					return
				}
			}
		}
	}
}

// ApplyDT performs one exact dominance test of q against p and folds the
// resulting masks into the solution bitsets.
func (k *Solution) ApplyDT(qq, pp []float32, full mask.Mask, memo bool) {
	k.ApplyRel(dom.Compare(qq, pp), full, memo)
}

// ApplyRel folds precomputed relationship masks of one DT (q's relation to
// p, as produced by dom.Compare) into the solution bitsets:
//
//   - every submask of B_{q<p} is strictly dominated;
//   - every submask δ of B_{q≤p} with at least one strict bit is dominated.
func (k *Solution) ApplyRel(r dom.Rel, full mask.Mask, memo bool) {
	lt := r.Lt & full
	m := (lt | r.Eq) & full
	if m == 0 || lt == 0 {
		return // q beats p nowhere, or only ties: no dominance anywhere
	}
	if memo && k.notInSPlus.Test(int(m)-1) {
		// p is strictly dominated in m, so every submask of m is already
		// recorded in both bitsets: q conveys no new information (§4.3).
		return
	}
	if !k.notInSPlus.Test(int(lt) - 1) {
		k.notInSPlus.OrDownset(lt, 0, nil, nil)
	}
	// The submasks of m that intersect lt, those of lt among them.
	k.remaining -= k.notInS.OrDownset(m, m&^lt, nil, k.relevant)
}
