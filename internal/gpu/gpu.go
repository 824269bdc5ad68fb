// Package gpu contains the GPU specialisations of the skycube templates
// (paper §6), executed on the gpusim device model.
//
// SDSC hook (§6.1): the CPU's Hybrid engine with each tile's phase A as a
// kernel launch — global static pivots, label arrays scanned sequentially
// for coalesced reads, label tests before dominance tests, and points
// projected into the subspace.
//
// MDMC hook (§6.2): one thread block per point task. The task-local
// bitmasks B_{p∉S} and B_{p∉S⁺} live in (simulated) shared memory, whose
// per-block footprint 2·(2^d −1) bits bounds occupancy; the block's threads
// stride the tree's leaves for the filter scan and again for the refine
// scan, taking a warp vote before dominance tests.
package gpu

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skycube/internal/data"
	"skycube/internal/gpusim"
	"skycube/internal/mask"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

// StatsCollector accumulates device statistics across launches; safe for
// concurrent use.
type StatsCollector struct {
	mu     sync.Mutex
	s      gpusim.Stats
	sweeps int64
}

// Add merges launch stats.
func (c *StatsCollector) Add(s gpusim.Stats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.s.Add(s)
	c.mu.Unlock()
}

func (c *StatsCollector) addSweeps(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.sweeps += n
	c.mu.Unlock()
}

// Sweeps returns the 64-lane dominance words the SDSC hook's engine swept,
// on the device and on the host.
func (c *StatsCollector) Sweeps() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sweeps
}

// Total returns the accumulated stats.
func (c *StatsCollector) Total() gpusim.Stats {
	if c == nil {
		return gpusim.Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// deviceBlockThreads is the SDSC kernels' block size.
const deviceBlockThreads = 128

// Compute runs the Hybrid engine on one cuboid with each tile's phase A —
// every point against the result groups, label tests before any dominance
// test — as one kernel launch in which a block owns 128 points: a coalesced
// load of each point's row and labels, three instructions and a warp's share
// of a 128 B label line per label test, and per word swept a warp vote, the
// group's k column words of 256 B loaded coalesced (the GPU projects points
// into δ, §6.1) and k compares. A cuboid large enough for the engine's
// pre-filter pays it first as one more launch, 128 input rows a block, each
// row loaded coalesced and swept against the representatives' one word. Phase
// B and the group appends stay on the host, the sequential tail of each tile.
func Compute(dev *gpusim.Device, ds *data.Dataset, rows []int32, delta mask.Mask, stats *StatsCollector) skyline.Result {
	if rows == nil {
		rows = make([]int32, ds.N)
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	d, k := ds.Dims, mask.Count(delta)
	depth := skyline.LabelDepth(len(rows), k)
	// Input upload: the cuboid's (reduced) rows and labels cross PCIe once.
	stats.Add(gpusim.Transfer(len(rows) * (d*4 + 4*depth)))

	var blocks []*gpusim.BlockCtx // this launch's blocks, by index
	var sweeps atomic.Int64
	res := skyline.HybridInstrumented(ds, rows, delta, 1, &skyline.HybridHooks{
		Filter: func(_ []int32, words int) {
			if words == 0 {
				return
			}
			n := len(rows)
			st, err := dev.Launch((n+deviceBlockThreads-1)/deviceBlockThreads, deviceBlockThreads, 0, func(b *gpusim.BlockCtx) {
				for range min(deviceBlockThreads, n-b.Block*deviceBlockThreads) {
					b.LoadCoalesced(4 * d)
					b.Vote(true)
					b.LoadCoalesced(k * 256)
					b.Instr(k)
				}
			})
			if err != nil {
				panic(fmt.Sprintf("gpu: SDSC pre-filter launch failed: %v", err))
			}
			stats.Add(st)
			sweeps.Add(int64(words))
		},
		Spread: func(tile []int32, _ int, probe func(w, lo, hi int), _ func(func(w, lo, hi int))) {
			blocks = make([]*gpusim.BlockCtx, (len(tile)+deviceBlockThreads-1)/deviceBlockThreads)
			st, err := dev.Launch(len(blocks), deviceBlockThreads, 0, func(b *gpusim.BlockCtx) {
				blocks[b.Block] = b
				lo := b.Block * deviceBlockThreads
				for t := lo; t < min(lo+deviceBlockThreads, len(tile)); t++ {
					b.LoadCoalesced(4*d + 4*depth)
					probe(b.Block, t, t+1)
				}
			})
			if err != nil {
				panic(fmt.Sprintf("gpu: SDSC launch failed: %v", err))
			}
			stats.Add(st)
		},
		Group: func(w, t, gi, _, words int) {
			b := blocks[w]
			if depth > 0 {
				// The label scan is sequential over flat arrays; a warp reads
				// each 128-byte line once.
				if t%gpusim.WarpSize == 0 && gi%16 == 0 {
					b.LoadCoalesced(128)
				}
				b.Instr(3)
			}
			for range words {
				b.Vote(true)
				b.LoadCoalesced(k * 256)
				b.Instr(k)
			}
			sweeps.Add(int64(words))
		},
		Fresh: func(_, words int) { sweeps.Add(int64(words)) },
	})
	stats.addSweeps(sweeps.Load())
	return res
}

// BlockThreads returns the MDMC block size for dimensionality d: as the
// per-task state grows, more threads cooperate on each point (§6.2).
func BlockThreads(d int) int {
	switch {
	case d <= 10:
		return 32
	case d <= 12:
		return 64
	case d <= 14:
		return 128
	default:
		return 256
	}
}

// PreferredChunk reports the point-task grab size that keeps the device
// saturated for dimensionality d: one point per thread block, so a grab
// should cover at least the concurrently-resident blocks (which shrink as
// the 2·(2^d −1)-bit task state eats shared memory, §6.2), rounded up to a
// multiple of the warp-friendly 64 and clamped to a sane range. This is the
// device's chunk-size report to the adaptive cross-device scheduler.
func PreferredChunk(dev *gpusim.Device, d int) int {
	occ := dev.OccupantBlocks(templates.StateBytes(d))
	chunk := (occ + 63) / 64 * 64
	if chunk < 64 {
		chunk = 64
	}
	if chunk > 2048 {
		chunk = 2048
	}
	return chunk
}

// PointKernel returns the MDMC GPU specialisation: a templates.PointKernel
// that processes each chunk as one kernel launch with a block per point.
// Stats, if non-nil, accumulates device counters.
func PointKernel(dev *gpusim.Device, stats *StatsCollector) templates.PointKernel {
	var pool sync.Pool
	return func(ctx *templates.MDMCContext, lo, hi int) {
		d := ctx.D
		threads := BlockThreads(d)
		shared := templates.StateBytes(d)
		tree := ctx.Tree
		nLeaves := len(tree.Leaves)
		stride := ctx.Cube.Stride()
		rows := make([]uint64, (hi-lo)*stride)
		st, err := dev.Launch(hi-lo, threads, shared, func(b *gpusim.BlockCtx) {
			sol, _ := pool.Get().(*templates.Solution)
			if sol == nil {
				sol = templates.NewSolution(ctx)
			}
			defer pool.Put(sol)
			p := lo + b.Block
			sol.Reset()

			// Filter (§6.2): the block's threads stride the leaves, reading
			// the flat three-level label arrays — one coalesced pass over
			// 3×4 bytes per leaf — and derive each leaf's full three-level
			// composite mask, stronger than the CPU's two-level filter: six
			// instructions and a shared-memory update per leaf.
			b.LoadCoalesced(12 * nLeaves)
			sol.FilterInstrumented(p, 3, func(int, int, mask.Mask) {
				b.Instr(6)
				b.SharedAccess(1)
			})
			b.Sync()

			// Refine: second strided scan; a warp vote decides whether any
			// lane needs a DT, and DT loads are coalesced because a leaf's
			// points are physically consecutive.
			b.LoadCoalesced(12 * nLeaves)
			sol.RefineInstrumented(p, true,
				func(skipped bool) {
					b.Instr(4)
					if b.Vote(!skipped) {
						b.Diverge()
					}
				},
				func() {
					b.LoadCoalesced(4 * d)
					b.Instr(d)
					b.SharedAccess(2)
				})

			// Asynchronous copy of the finished bitmask to the host.
			b.LoadCoalesced(templates.StateBytes(d) / 2)
			copy(rows[b.Block*stride:], sol.NotInS().Words64())
		})
		if err != nil {
			panic(fmt.Sprintf("gpu: MDMC launch failed: %v", err))
		}
		// Finished bitmasks stream back to the host cube asynchronously.
		st.Add(gpusim.Transfer((hi - lo) * templates.StateBytes(ctx.D) / 2))
		ctx.Cube.Insert(ctx.OrigRow[lo:hi], rows)
		stats.Add(st)
	}
}
