// Package counters provides the profiled builds used by the hardware-level
// experiments (paper §7.2, Figures 8–11): PQSkycube, STSC, SDSC and MDMC
// with every significant data access routed through a memsim probe, so the
// memory-hierarchy model observes the algorithms' *real* access streams.
//
// STSC, SDSC and MDMC run the production engines themselves and charge what
// their instrumentation hooks report: skyline.HybridInstrumented's tiles,
// label tests and word sweeps, and the MDMC Solution's filter and refine
// visits. The PQSkycube baseline, which no build runs any more, is modelled
// here as a recursive pivot filter. Outputs are asserted equal to the
// production implementations in the package tests. Addresses are logical but
// faithful to the layouts: the dataset and flat label arrays are contiguous,
// each Hybrid group's column words are one region per group; the baseline's
// recursive tree nodes come from a shared pseudo-heap allocator, scattering
// them the way a real allocator does under concurrent cuboid construction.
package counters

import (
	"sort"
	"sync"
	"sync/atomic"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/memsim"
	"skycube/internal/skyline"
	"skycube/internal/stree"
	"skycube/internal/templates"
)

// Logical address-space bases, far enough apart that structures never
// alias. The data region layout matches the row-major dataset.
const (
	dataBase    = 0x10_0000_0000
	labelBase   = 0x20_0000_0000
	treeBase    = 0x30_0000_0000
	heapBase    = 0x40_0000_0000
	scratchBase = 0x50_0000_0000
	resultBase  = 0x60_0000_0000
	groupBase   = 0x70_0000_0000

	heapNodeBytes    = 256
	scratchPerThread = 1 << 20
	// groupRegion is one worker's share of groupBase: the Hybrid engine's
	// block sets come from per-P pools, so concurrent cuboids never share
	// them, while one worker's successive cuboids reuse the same memory.
	groupRegion = 1 << 36
)

// barrierCycles is the modelled cost of one fork/join barrier per
// participating thread (≈ a microsecond at the modelled clock).
const barrierCycles = 5000

// Config selects the modelled machine for a profiled run.
type Config struct {
	// Threads is the number of profiled worker threads (cores).
	Threads int
	// Sockets is 1 or 2; threads are split evenly across sockets.
	Sockets int
	// HugePages enables 2 MiB pages (the paper's machine has transparent
	// huge pages on).
	HugePages bool
	// SMT models hyper-threading: two contexts alternate on each core, so
	// per-thread issue width halves and the private L2 is shared (modelled
	// as halved). Used for the "HT" data points of Figure 5.
	SMT bool
}

// Report is the outcome of one profiled run.
type Report struct {
	Algo     string
	Counters memsim.Counters
	MachCfg  memsim.Config
	// CriticalPathCycles is the largest per-thread cycle count — the
	// modelled parallel execution time, from which Figure 5's modelled
	// speedups are computed.
	CriticalPathCycles int64
	// Sweeps is the number of 64-lane dominance words the Hybrid engine
	// swept under the probes (ST and SD; 0 for PQ and MD).
	Sweeps int64
}

// CPI returns the run's modelled cycles per instruction.
func (r Report) CPI() float64 { return r.Counters.CPI(r.MachCfg) }

// profiler bundles the per-run shared state.
type profiler struct {
	sys   *System
	alloc int64 // pseudo-heap allocation counter
}

// System wraps a memsim.System with thread placement.
type System struct {
	*memsim.System
	threads int
	sockets int
}

func newSystem(cfg Config) *System {
	if cfg.Threads < 1 {
		cfg.Threads = 1
	}
	if cfg.Sockets < 1 {
		cfg.Sockets = 1
	}
	mc := memsim.DefaultConfig(cfg.Sockets, cfg.HugePages)
	if cfg.SMT {
		// Two contexts alternate on each core: per-thread issue width
		// halves, the private L2 is shared, and — the point of SMT — the
		// partner context fills a thread's stall slots, so unhidden miss
		// latency halves. Memory-bound algorithms therefore gain from HT
		// while compute-bound ones pay the issue tax (paper Fig. 5).
		mc.BaseCPI *= 2
		mc.L2Bytes /= 2
		mc.HideFactor = (1 + mc.HideFactor) / 2
	}
	return &System{
		System:  memsim.NewSystem(mc),
		threads: cfg.Threads,
		sockets: cfg.Sockets,
	}
}

// threadProbe creates the probe for worker w, pinned round-robin by socket
// half: the first half of the workers on socket 0, the rest on socket 1 —
// the paper's "split evenly over two sockets" configuration.
func (s *System) threadProbe(w int) *memsim.Thread {
	sock := 0
	if s.sockets > 1 && w >= (s.threads+1)/2 {
		sock = 1
	}
	return s.NewThread(sock)
}

// probes creates one probe per worker, placed by threadProbe.
func (s *System) probes() []*memsim.Thread {
	probes := make([]*memsim.Thread, s.threads)
	for w := range probes {
		probes[w] = s.threadProbe(w)
	}
	return probes
}

// report is the run's Report once its probes are done.
func (s *System) report(algo string, sweeps int64) Report {
	return Report{Algo: algo, Counters: s.Totals(), MachCfg: s.Config(),
		CriticalPathCycles: s.MaxThreadCycles(), Sweeps: sweeps}
}

// allocNode returns the pseudo-heap address of a freshly allocated tree
// node or bucket: a shared atomic counter interleaves concurrent cuboids'
// allocations across the heap, like a real allocator under parallel load.
func (p *profiler) allocNode() uint64 {
	n := atomic.AddInt64(&p.alloc, 1) - 1
	return heapBase + uint64(n)*heapNodeBytes
}

func pointAddr(ds *data.Dataset, row int32) uint64 {
	return dataBase + uint64(row)*uint64(ds.Dims)*4
}

// staticTopDown is the profiled builds' level-synchronised traversal with
// *static* round-robin cuboid assignment: cuboid i of each level goes to
// thread i mod T. Unlike the production traversal's dynamic pulling, the
// assignment is independent of the host's scheduler, so modelled critical
// paths are deterministic on any machine (static scheduling is also what
// pinned OpenMP loops do on the paper's testbed).
func staticTopDown(ds *data.Dataset, probes []*memsim.Thread,
	cuboid func(w int, rows []int32, delta mask.Mask) ([]int32, []int32)) *lattice.Lattice {

	d := ds.Dims
	l := lattice.New(d)
	all := make([]int32, ds.N)
	for i := range all {
		all[i] = int32(i)
	}
	for level := d; level >= 1; level-- {
		cuboids := mask.Level(d, level)
		var wg sync.WaitGroup
		workers := len(probes)
		if workers > len(cuboids) {
			workers = len(cuboids)
		}
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(cuboids); i += workers {
					delta := cuboids[i]
					rows := all
					if level < d {
						par := l.MinParent(delta)
						rows = mergeRows(l.Sky[par], l.ExtOnly[par])
					}
					sky, extOnly := cuboid(w, rows, delta)
					l.Sky[delta] = sky
					l.ExtOnly[delta] = extOnly
				}
			}(w)
		}
		wg.Wait()
		// Level-synchronisation barrier (once per lattice level).
		for _, th := range probes {
			th.Barrier(2500)
		}
	}
	return l
}

func mergeRows(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// ProfilePQ runs the profiled PQSkycube baseline: a top-down lattice
// traversal whose cuboids (computed threads-at-a-time within a level) each
// build a recursive, pointer-based pivot tree.
func ProfilePQ(ds *data.Dataset, cfg Config) (Report, *lattice.Lattice) {
	sys := newSystem(cfg)
	p := &profiler{sys: sys}
	probes := sys.probes()
	l := staticTopDown(ds, probes, func(w int, rows []int32, delta mask.Mask) ([]int32, []int32) {
		ext := p.probedPivotFilter(probes[w], ds, rows, delta, true)
		sky := p.probedPivotFilter(probes[w], ds, ext, delta, false)
		return sky, skyline.DiffSorted(ext, sky)
	})
	return sys.report("PQ", 0), l
}

// ProfileST runs the profiled STSC: the same traversal, but each cuboid is
// a single-threaded run of the Hybrid engine.
func ProfileST(ds *data.Dataset, cfg Config) (Report, *lattice.Lattice) {
	sys := newSystem(cfg)
	probes := sys.probes()
	var sweeps atomic.Int64
	l := staticTopDown(ds, probes, func(w int, rows []int32, delta mask.Mask) ([]int32, []int32) {
		res := profiledHybrid(ds, rows, delta, probes[w:w+1], groupBase+uint64(w)*groupRegion, &sweeps)
		return res.Skyline, res.ExtOnly
	})
	return sys.report("ST", sweeps.Load()), l
}

// ProfileSD runs the profiled SDSC: cuboids one at a time, all threads
// cooperating on each tile.
func ProfileSD(ds *data.Dataset, cfg Config) (Report, *lattice.Lattice) {
	sys := newSystem(cfg)
	probes := sys.probes()
	var sweeps atomic.Int64
	hook := func(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
		res := profiledHybrid(ds, rows, delta, probes, groupBase, &sweeps)
		return res.Skyline, res.ExtOnly
	}
	l := lattice.TopDown(ds, hook, lattice.TopDownOptions{CuboidThreads: 1})
	return sys.report("SD", sweeps.Load()), l
}

// profiledHybrid is one cuboid of the Hybrid engine under the probes. The
// prologue's passes are charged in the order the engine runs them, each split
// over the probes as the engine splits it (skyline.PrologueWorkers): the δ-sum
// pass reads every row; the tile order's inverse is written at random; the
// scatter reads every row again and writes its projection and δ-sum at its
// tile position; when there are labels, each dimension's pivots cost a
// strided pass over the staged points and a column, and the labels one more
// sequential pass. The model sorts the δ-sums itself to know where the
// scatter writes land; the radix passes are not charged. Each tile's phase A
// is spread over as many probes as the engine would fork goroutines, with a
// fork/join barrier per tile when that is more than one: a point costs its own
// labels and its k staged coordinates, read at its tile position, a group
// visit one label entry and three instructions, a word swept the group's k
// column words of 256 B. Phase B runs on one goroutine, so the first probe
// pays it: a point's staged coordinates and its words of the tile's new
// members. Those members, and then each group's block set, live in the region
// at base, the staged cuboid in that region's upper half.
func profiledHybrid(ds *data.Dataset, rows []int32, delta mask.Mask, probes []*memsim.Thread, base uint64, sweeps *atomic.Int64) skyline.Result {
	n := len(rows)
	dims := mask.Dims(delta)
	k := len(dims)
	span := func(bytes int) uint64 { return (uint64(bytes)+4095)&^4095 + 64 }
	ptsAt := base + groupRegion/2
	sumAt := ptsAt + span(n*k*4)
	labelAt := sumAt + span(n*4)
	posAt := labelAt + span(n*8)
	rowSumAt := posAt + span(n*4)
	colAt := rowSumAt + span(n*4)

	workers := skyline.PrologueWorkers(n, len(probes))
	pass := func(f func(th *memsim.Thread, i int)) {
		for w := 0; w < workers; w++ {
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				f(probes[w], i)
			}
		}
	}
	rowSum := make([]float32, n)
	pass(func(th *memsim.Thread, i int) {
		th.Load(pointAddr(ds, rows[i]), ds.Dims*4)
		th.Instr(k)
		th.Load(rowSumAt+uint64(i)*4, 4)
		rowSum[i] = data.SumOver(ds.Point(int(rows[i])), dims)
	})
	ord := data.SumOrder(rowSum, rows)
	pos := make([]int32, n)
	pass(func(th *memsim.Thread, t int) {
		th.Load(posAt+uint64(ord[t])*4, 4)
		pos[ord[t]] = int32(t)
	})
	staged := func(t int32) uint64 { return ptsAt + uint64(t)*uint64(k)*4 }
	pass(func(th *memsim.Thread, i int) {
		th.Load(pointAddr(ds, rows[i]), ds.Dims*4)
		th.Load(posAt+uint64(i)*4, 4)
		th.Load(rowSumAt+uint64(i)*4, 4)
		th.Load(staged(pos[i]), k*4)
		th.Load(sumAt+uint64(pos[i])*4, 4)
		th.Instr(k)
	})
	if skyline.LabelDepth(n, k) > 0 {
		selectors := min(workers, k)
		for w := 0; w < selectors; w++ {
			for range (w+1)*k/selectors - w*k/selectors {
				probes[w].Load(ptsAt, n*k*4)
				probes[w].Load(colAt+uint64(w*n)*4, n*4)
				probes[w].Instr(n)
			}
		}
		pass(func(th *memsim.Thread, t int) {
			th.Load(staged(int32(t)), k*4)
			th.Load(labelAt+uint64(t)*8, 8)
			th.Instr(k)
		})
	}

	// The tile's new members are at base, each group's words after them, one
	// line past a page boundary so the groups' first words do not all map to
	// one cache set.
	groupBytes := span(n * k * 4)
	sweep := func(th *memsim.Thread, addr uint64, words int) {
		for i := 0; i < words*k; i++ {
			th.Load(addr+uint64(i)*256, 256)
		}
		sweeps.Add(int64(words))
	}
	point := func(th *memsim.Thread, p int32) {
		th.Load(labelAt+uint64(pos[p])*8, 8)
		th.Load(staged(pos[p]), k*4)
		th.Instr(k)
	}
	return skyline.HybridInstrumented(ds, rows, delta, len(probes), &skyline.HybridHooks{
		Spread: func(tile []int32, tn int, probe func(w, lo, hi int), fanOut func(func(w, lo, hi int))) {
			fanOut(func(w, lo, hi int) {
				for t := lo; t < hi; t++ {
					point(probes[w], tile[t])
					probe(w, t, t+1)
				}
			})
			if tn == 1 {
				return
			}
			// Fork/join barrier per tile, paid by every participating
			// thread — the synchronisation cost that limits SDSC's
			// scalability and makes hyper-threading counterproductive for
			// it (paper §7.2, Fig. 5).
			for _, th := range probes {
				th.Barrier(barrierCycles)
			}
		},
		Group: func(w, _, gi, id, words int) {
			th := probes[w]
			th.Load(labelBase+0x1000_0000+uint64(gi)*8, 8)
			th.Instr(3)
			sweep(th, base+groupBytes*uint64(id+1), words)
		},
		Fresh: func(p, words int) {
			probes[0].Load(staged(pos[p]), k*4)
			probes[0].Instr(k)
			sweep(probes[0], base, words)
		},
	})
}

// ProfileMD runs the profiled MDMC point loop over the shared static tree.
func ProfileMD(ds *data.Dataset, cfg Config) (Report, *templates.MDMCResult) {
	sys := newSystem(cfg)
	ctx := templates.PrepareMDMC(ds, sys.threads, 3, 0)
	tree := ctx.Tree
	n := ctx.NumTasks()

	// Static round-robin chunk assignment (16-point chunks — fine-grained
	// enough to balance the skewed per-point cost), so the modelled
	// per-thread work split does not depend on the host scheduler.
	var wg sync.WaitGroup
	wg.Add(sys.threads)
	for w := 0; w < sys.threads; w++ {
		th := sys.threadProbe(w)
		scratch := scratchBase + uint64(w)*scratchPerThread
		go func(w int) {
			defer wg.Done()
			sol := templates.NewSolution(ctx)
			for pStart := w * 16; pStart < n; pStart += sys.threads * 16 {
				pEnd := pStart + 16
				if pEnd > n {
					pEnd = n
				}
				for p := pStart; p < pEnd; p++ {
					sol.Reset()
					profiledMDFilter(th, sol, p, scratch)
					profiledMDRefine(th, tree, sol, p, scratch)
					ctx.Cube.Insert(ctx.OrigRow[p], sol.NotInS())
				}
			}
		}(w)
	}
	wg.Wait()
	res := &templates.MDMCResult{Cube: ctx.Cube, ExtRows: ctx.ExtRows}
	return sys.report("MD", 0), res
}

// profiledMDFilter drives Solution.Filter (top two tree levels) with
// probes: only the flat L2 label columns are read, sequentially — they fit in
// L2 — plus the thread's own bitset scratch, once per subspace looked up in it.
func profiledMDFilter(th *memsim.Thread, sol *templates.Solution, p int, scratch uint64) {
	th.Load(treeBase+uint64(p)*8, 8) // p's own labels
	sol.FilterInstrumented(p, 2, func(_, i int, delta mask.Mask) {
		th.Load(treeBase+0x10000+uint64(i)*8, 8)
		th.Instr(3)
		if delta != 0 {
			th.Load(scratch+uint64(delta/8)%scratchPerThread, 8)
		}
	})
}

// profiledMDRefine mirrors Solution.Refine with probes: sequential loads of
// the flat leaf-label array, contiguous DT loads within surviving leaves,
// and bitset updates confined to the thread's scratch region.
func profiledMDRefine(th *memsim.Thread, tree *stree.Tree, sol *templates.Solution, p int, scratch uint64) {
	leafIdx := 0
	sol.RefineInstrumented(p, true,
		func(skipped bool) {
			th.Load(treeBase+0x100000+uint64(leafIdx)*12, 12)
			th.Instr(3)
			leafIdx++
		},
		func() {
			// The DT loads one leaf point's row (contiguous) and updates
			// the solution bitsets in scratch.
			th.Load(pointAddr(tree.Data, int32(leafIdx%tree.Data.N)), tree.Data.Dims*4)
			th.Load(scratch+uint64(leafIdx*8)%scratchPerThread, 8)
			th.Instr(tree.Data.Dims)
		})
}

// probedCompare is an exact DT with probes: loads both points' rows.
func probedCompare(th *memsim.Thread, ds *data.Dataset, q, p int32) dom.Rel {
	th.Load(pointAddr(ds, q), ds.Dims*4)
	th.Load(pointAddr(ds, p), ds.Dims*4)
	th.Instr(ds.Dims)
	return dom.Compare(ds.Point(int(q)), ds.Point(int(p)))
}

// ---------------------------------------------------------------------------
// Profiled PQSkycube cuboid: recursive pivot partitioning with pointer-
// based buckets from the shared pseudo-heap.

const probedLeafSize = 48

func (p *profiler) probedPivotFilter(th *memsim.Thread, ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	out := p.probedPivotRec(th, ds, rows, delta, strict, 0)
	sorted := append([]int32(nil), out...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted
}

type probedBucket struct {
	m    mask.Mask
	rows []int32
	addr uint64 // pseudo-heap node backing this bucket
}

func (p *profiler) probedPivotRec(th *memsim.Thread, ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, depth int) []int32 {
	if len(rows) <= probedLeafSize || depth > 64 {
		return p.probedBNL(th, ds, rows, delta, strict)
	}
	piv := p.probedSelectPivot(th, ds, rows, delta)
	pivPoint := ds.Point(int(piv))
	th.Load(pointAddr(ds, piv), ds.Dims*4)

	parts := make(map[mask.Mask]*probedBucket, 64)
	var order []*probedBucket
	progress := false
	for _, q := range rows {
		th.Load(pointAddr(ds, q), ds.Dims*4)
		th.Instr(ds.Dims)
		r := dom.Compare(pivPoint, ds.Point(int(q)))
		if q != piv && dom.Kills(r, delta, strict) {
			progress = true
			continue
		}
		m := r.Leq() & delta
		b := parts[m]
		if b == nil {
			b = &probedBucket{m: m, addr: p.allocNode()}
			parts[m] = b
			order = append(order, b)
		}
		// Bucket append chases the bucket's heap node.
		th.Load(b.addr, 16)
		b.rows = append(b.rows, q)
	}
	if !progress && len(order) == 1 {
		return p.probedBNL(th, ds, rows, delta, strict)
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := mask.Count(order[a].m), mask.Count(order[b].m)
		if ca != cb {
			return ca < cb
		}
		return order[a].m < order[b].m
	})

	type resEntry struct {
		row  int32
		m    mask.Mask
		addr uint64
	}
	var result []resEntry
	for _, b := range order {
		local := p.probedPivotRec(th, ds, b.rows, delta, strict, depth+1)
		for _, q := range local {
			dead := false
			for _, e := range result {
				// The mask test reads the result entry's tree node.
				th.Load(e.addr, 8)
				th.Instr(1)
				if e.m&^b.m&delta != 0 {
					continue
				}
				if dom.Kills(probedCompare(th, ds, e.row, q), delta, strict) {
					dead = true
					break
				}
			}
			if !dead {
				result = append(result, resEntry{row: q, m: b.m, addr: p.allocNode()})
			}
		}
	}
	out := make([]int32, len(result))
	for i, e := range result {
		out[i] = e.row
	}
	return out
}

func (p *profiler) probedSelectPivot(th *memsim.Thread, ds *data.Dataset, rows []int32, delta mask.Mask) int32 {
	dims := mask.Dims(delta)
	lo := make([]float32, len(dims))
	hi := make([]float32, len(dims))
	for k := range dims {
		v := ds.Value(int(rows[0]), dims[k])
		lo[k], hi[k] = v, v
	}
	for _, q := range rows[1:] {
		th.Load(pointAddr(ds, q), ds.Dims*4)
		for k, j := range dims {
			v := ds.Value(int(q), j)
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
	for _, q := range rows {
		th.Load(pointAddr(ds, q), ds.Dims*4)
		th.Instr(len(dims))
		s := 0.0
		for k, j := range dims {
			den := hi[k] - lo[k]
			if den <= 0 {
				continue
			}
			s += float64((ds.Value(int(q), j) - lo[k]) / den)
		}
		if s < bestScore {
			bestScore = s
			best = q
		}
	}
	return best
}

func (p *profiler) probedBNL(th *memsim.Thread, ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	window := make([]int32, 0, 16)
	for _, q := range rows {
		dead := false
		w := 0
		for _, e := range window {
			r := probedCompare(th, ds, e, q)
			if dom.Kills(r, delta, strict) {
				dead = true
				break
			}
			rq := dom.Rel{Lt: delta &^ (r.Lt | r.Eq), Eq: r.Eq}
			if !dom.Kills(rq, delta, strict) {
				window[w] = e
				w++
			}
		}
		if dead {
			continue
		}
		window = window[:w]
		window = append(window, q)
	}
	sort.Slice(window, func(a, b int) bool { return window[a] < window[b] })
	return window
}
