// Package counters provides the profiled builds used by the hardware-level
// experiments (paper §7.2, Figures 8–11): PQSkycube, STSC, SDSC and MDMC
// with every significant data access routed through a memsim probe, so the
// memory-hierarchy model observes the algorithms' *real* access streams.
//
// Every profiled build runs the production engine itself and charges what its
// instrumentation hooks report: skyline.HybridInstrumented's tiles, label
// tests and word sweeps (STSC, SDSC), the MDMC Solution's filter and refine
// visits (MDMC), and skyline.PivotFilter's pivots, partitions, mask tests,
// row compares and result entries (PQSkycube, whose cuboids QSkycube computes
// with that filter). Outputs are asserted equal to the production
// implementations in the package tests. Addresses are logical but faithful to
// the layouts: the dataset and flat label arrays are contiguous, each Hybrid
// group's column words are one region per group; the baseline's recursive
// tree nodes come from a shared pseudo-heap allocator, scattering them the way
// a real allocator does under concurrent cuboid construction.
package counters

import (
	"sync"
	"sync/atomic"

	"skycube/internal/data"
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

// pseudoHeap hands out the addresses of the baseline's tree nodes: one
// counter shared by a run's workers interleaves concurrent cuboids'
// allocations across the heap, like a real allocator under parallel load.
type pseudoHeap struct{ n atomic.Int64 }

func (h *pseudoHeap) alloc() uint64 {
	return heapBase + uint64(h.n.Add(1)-1)*heapNodeBytes
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
// run the BSkyTree filter twice, strict then not, as QSkycube does, building
// its recursive, pointer-based pivot tree.
func ProfilePQ(ds *data.Dataset, cfg Config) (Report, *lattice.Lattice) {
	sys := newSystem(cfg)
	var heap pseudoHeap
	probes := sys.probes()
	l := staticTopDown(ds, probes, func(w int, rows []int32, delta mask.Mask) ([]int32, []int32) {
		h := pivotHooks(probes[w], &heap, ds, mask.Count(delta))
		ext := skyline.PivotFilter(ds, rows, delta, true, h)
		sky := skyline.PivotFilter(ds, ext, delta, false, h)
		return sky, skyline.DiffSorted(ext, sky)
	})
	return sys.report("PQ", 0), l
}

// pivotHooks charges one cuboid's BSkyTree filters to th. Pivot selection
// reads every row but the first, then every row again at k instructions each,
// and then the pivot's row. A row partitioned against the pivot costs its row
// and d instructions and, unless the pivot killed it, 16 B of its partition's
// node; a mask test costs 8 B of the result entry's node and one instruction;
// a row compare both rows and d instructions. Partitions and result entries
// are nodes from heap, allocated when the filter creates them and kept per
// recursion depth for the call that depth runs.
func pivotHooks(th *memsim.Thread, heap *pseudoHeap, ds *data.Dataset, k int) *skyline.PivotHooks {
	var parts []map[mask.Mask]uint64 // by depth: the call's partition nodes
	var entries [][]uint64           // by depth: the call's result entry nodes
	row := func(r int32) { th.Load(pointAddr(ds, r), ds.Dims*4) }
	return &skyline.PivotHooks{
		Pivot: func(depth int, rows []int32, piv int32) {
			for _, r := range rows[1:] {
				row(r)
			}
			for _, r := range rows {
				row(r)
				th.Instr(k)
			}
			row(piv)
			for len(parts) <= depth {
				parts = append(parts, map[mask.Mask]uint64{})
				entries = append(entries, nil)
			}
			clear(parts[depth])
			entries[depth] = entries[depth][:0]
		},
		Partition: func(depth int, r int32, m mask.Mask, killed bool) {
			row(r)
			th.Instr(ds.Dims)
			if killed {
				return
			}
			addr, ok := parts[depth][m]
			if !ok {
				addr = heap.alloc()
				parts[depth][m] = addr
			}
			th.Load(addr, 16)
		},
		Test: func(depth, i int) {
			th.Load(entries[depth][i], 8)
			th.Instr(1)
		},
		Compare: func(q, r int32) {
			row(q)
			row(r)
			th.Instr(ds.Dims)
		},
		Keep: func(depth int) { entries[depth] = append(entries[depth], heap.alloc()) },
	}
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
// pass reads every row, and when there are labels the rows of the input's
// prefix the pivots are selected from (skyline.PivotRows) also write their k
// coordinates into the pivot columns; above the pre-filter's grain the engine
// reports the words it swept (HybridHooks.Filter), and every row re-reads its
// δ-sum, its row and the representatives' one word. The rest runs over the
// survivors the engine reports: the tile order's inverse is written at random;
// the scatter reads every survivor's row again and writes its projection and
// δ-sum at its tile position; when there are labels, each dimension's pivots
// cost a pass over its column, and the labels one more sequential pass over the
// survivors. The model sorts the survivors' δ-sums itself to know where the
// scatter writes land; the radix passes are not charged. Each tile's phase A is
// spread over as many probes as the engine would fork goroutines, with a
// fork/join barrier per tile when that is more than one: a point costs its own
// labels and its k staged coordinates, read at its tile position, a group visit
// one label entry and three instructions, a word swept the group's k column
// words of 256 B. Phase B runs on one goroutine, so the first probe pays it: a
// point's staged coordinates and its words of the tile's new members. Those
// members, and then each group's block set, live in the region at base, the
// staged cuboid in that region's upper half.
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
	repsAt := colAt + span(n*k*4)

	pass := func(n, workers int, f func(th *memsim.Thread, i int)) {
		for w := 0; w < workers; w++ {
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				f(probes[w], i)
			}
		}
	}
	workers := skyline.PrologueWorkers(n, len(probes))
	prefix := 0
	if skyline.LabelDepth(n, k) > 0 {
		prefix = skyline.PivotRows(n)
	}
	pass(n, workers, func(th *memsim.Thread, i int) {
		th.Load(pointAddr(ds, rows[i]), ds.Dims*4)
		th.Instr(k)
		th.Load(rowSumAt+uint64(i)*4, 4)
		if i < prefix {
			for idx := 0; idx < k; idx++ {
				th.Load(colAt+uint64(idx*prefix+i)*4, 4)
			}
		}
	})
	staged := func(t int32) uint64 { return ptsAt + uint64(t)*uint64(k)*4 }
	var pos []int32 // by index into the survivors: the tile position
	filter := func(kept []int32, words int) {
		if words > 0 {
			pass(n, workers, func(th *memsim.Thread, i int) {
				th.Load(rowSumAt+uint64(i)*4, 4)
				th.Load(pointAddr(ds, rows[i]), ds.Dims*4)
				th.Instr(k)
				for j := 0; j < k; j++ {
					th.Load(repsAt+uint64(j)*256, 256)
				}
			})
			sweeps.Add(int64(words))
		}
		m := len(kept)
		keptWorkers := skyline.PrologueWorkers(m, len(probes))
		keptSum := make([]float32, m)
		for i, r := range kept {
			keptSum[i] = data.SumOver(ds.Point(int(r)), dims)
		}
		ord := data.SumOrder(keptSum, kept)
		pos = make([]int32, m)
		pass(m, keptWorkers, func(th *memsim.Thread, t int) {
			th.Load(posAt+uint64(ord[t])*4, 4)
			pos[ord[t]] = int32(t)
		})
		pass(m, keptWorkers, func(th *memsim.Thread, i int) {
			th.Load(pointAddr(ds, kept[i]), ds.Dims*4)
			th.Load(posAt+uint64(i)*4, 4)
			th.Load(rowSumAt+uint64(i)*4, 4)
			th.Load(staged(pos[i]), k*4)
			th.Load(sumAt+uint64(pos[i])*4, 4)
			th.Instr(k)
		})
		if prefix == 0 {
			return
		}
		selectors := min(workers, k)
		for w := 0; w < selectors; w++ {
			for idx := w * k / selectors; idx < (w+1)*k/selectors; idx++ {
				probes[w].Load(colAt+uint64(idx*prefix)*4, prefix*4)
				probes[w].Instr(prefix)
			}
		}
		pass(m, keptWorkers, func(th *memsim.Thread, t int) {
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
		Filter: filter,
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
			stride := ctx.Cube.Stride()
			rows := make([]uint64, 16*stride)
			for pStart := w * 16; pStart < n; pStart += sys.threads * 16 {
				pEnd := pStart + 16
				if pEnd > n {
					pEnd = n
				}
				for p := pStart; p < pEnd; p++ {
					sol.Reset()
					profiledMDFilter(th, ctx, sol, p, scratch)
					profiledMDRefine(th, tree, sol, p, scratch)
					copy(rows[(p-pStart)*stride:], sol.NotInS().Words64())
				}
				ctx.Cube.Insert(ctx.OrigRow[pStart:pEnd], rows[:(pEnd-pStart)*stride])
			}
		}(w)
	}
	wg.Wait()
	res := &templates.MDMCResult{Cube: ctx.Cube, ExtRows: ctx.ExtRows}
	return sys.report("MD", 0), res
}

// profiledMDFilter drives Solution.Filter at the context's level with probes:
// only the flat label columns of that level are read, sequentially — the L2
// columns, which fit in L2, or the leaf columns the refine reads too — plus
// the thread's own bitset scratch, once per subspace looked up in it.
func profiledMDFilter(th *memsim.Thread, ctx *templates.MDMCContext, sol *templates.Solution, p int, scratch uint64) {
	th.Load(treeBase+uint64(p)*8, 8) // p's own labels
	sol.FilterInstrumented(p, ctx.FilterLevel, func(level, i int, delta mask.Mask) {
		if level == 3 {
			th.Load(treeBase+0x100000+uint64(i)*12, 12)
		} else {
			th.Load(treeBase+0x10000+uint64(i)*8, 8)
		}
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
