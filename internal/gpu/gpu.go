// Package gpu contains the GPU specialisations of the skycube templates
// (paper §6), executed on the gpusim device model.
//
// SDSC hook (§6.1): a SkyAlign-style skyline — global static pivots, flat
// label arrays scanned sequentially for coalesced reads, mask tests before
// dominance tests, and on-the-fly subspace projection of DTs.
//
// MDMC hook (§6.2): one thread block per point task. The task-local
// bitmasks B_{p∉S} and B_{p∉S⁺} live in (simulated) shared memory, whose
// per-block footprint 2·(2^d −1) bits bounds occupancy; the block's threads
// stride the tree's leaves for the filter scan and again for the refine
// scan, taking a warp vote before dominance tests.
package gpu

import (
	"fmt"
	"slices"
	"sync"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gpusim"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

// CuboidHook returns the SDSC GPU specialisation: a lattice cuboid function
// that computes S_δ and S⁺_δ \ S_δ on the given device. Stats, if non-nil,
// accumulates the modelled device counters across cuboids.
func CuboidHook(dev *gpusim.Device, stats *StatsCollector) lattice.CuboidFunc {
	return func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
		res := Compute(dev, ds, rows, delta, stats)
		return res.Skyline, res.ExtOnly
	}
}

// StatsCollector accumulates device statistics across launches; safe for
// concurrent use.
type StatsCollector struct {
	mu sync.Mutex
	s  gpusim.Stats
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

// Total returns the accumulated stats.
func (c *StatsCollector) Total() gpusim.Stats {
	if c == nil {
		return gpusim.Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// Compute runs the two-phase (extended, then skyline-within-extended)
// computation of one cuboid on the device.
func Compute(dev *gpusim.Device, ds *data.Dataset, rows []int32, delta mask.Mask, stats *StatsCollector) skyline.Result {
	if rows == nil {
		rows = make([]int32, ds.N)
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	ext := deviceFilter(dev, ds, rows, delta, true, stats)
	sky := deviceFilter(dev, ds, ext, delta, false, stats)
	return skyline.Result{Skyline: sky, ExtOnly: skyline.DiffSorted(ext, sky)}
}

// deviceTileSize is the number of points consumed per kernel launch.
const deviceTileSize = 4096

// deviceBlockThreads is the SDSC kernel's block size.
const deviceBlockThreads = 128

// deviceFilter is the SkyAlign-style survivor filter: points sorted by L1
// norm over δ are consumed in tiles; each tile is one kernel launch in
// which every thread owns one point and scans the flat label array of the
// current result, mask-testing before any dominance test. The labels are the
// production prologue's, to the depth skyline.LabelDepth derives; the loop is
// still the two-phase tile loop, run once strictly and once not, that the CPU
// engine had before it fused its passes (ROADMAP item 3(c)).
func deviceFilter(dev *gpusim.Device, ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, stats *StatsCollector) []int32 {
	n := len(rows)
	if n == 0 {
		return nil
	}
	d := ds.Dims
	dims := mask.Dims(delta)
	medM, quartM, _, ord := skyline.HybridPrepare(ds, rows, dims)
	depth := skyline.LabelDepth(n, len(dims))

	// Input upload: the cuboid's (reduced) rows and labels cross PCIe once.
	stats.Add(gpusim.Transfer(n * (d*4 + 4*depth)))

	// Flat, append-only result arrays: the linear layout the kernel scans
	// sequentially for coalesced reads.
	var resMed, resQuart []mask.Mask
	var resIdx []int32 // indices into rows
	survivors := make([]int32, 0, n/4)

	alive := make([]bool, deviceTileSize)
	for tileStart := 0; tileStart < n; tileStart += deviceTileSize {
		tileEnd := tileStart + deviceTileSize
		if tileEnd > n {
			tileEnd = n
		}
		tile := ord[tileStart:tileEnd]
		tlen := len(tile)
		blocks := (tlen + deviceBlockThreads - 1) / deviceBlockThreads
		st, err := dev.Launch(blocks, deviceBlockThreads, 0, func(b *gpusim.BlockCtx) {
			lo := b.Block * deviceBlockThreads
			hi := lo + deviceBlockThreads
			if hi > tlen {
				hi = tlen
			}
			for t := lo; t < hi; t++ {
				k := tile[t]
				pp := ds.Point(int(rows[k]))
				mp, qp := medM[k], quartM[k]
				// One coalesced load of the point's own row and labels.
				b.LoadCoalesced(4*d + 4*depth)
				ok := true
				for e := 0; e < len(resIdx); e++ {
					if depth > 0 {
						// The label scan is sequential over flat arrays; a
						// warp reads each 128-byte line once.
						if t%gpusim.WarpSize == 0 && e%16 == 0 {
							b.LoadCoalesced(128)
						}
						b.Instr(3)
						worse := skyline.CompositeStrict2(mp, qp, resMed[e], resQuart[e])
						if worse&delta != 0 {
							continue
						}
						better := skyline.CompositeStrict2(resMed[e], resQuart[e], mp, qp)
						if better&delta == delta {
							ok = false
							break
						}
					}
					// Inconclusive: exact DT with an on-the-fly projected
					// load (§6.1 — the GPU projects points into δ).
					if b.Vote(true) {
						b.Diverge()
					}
					b.LoadScattered(1, 4*len(dims))
					b.Instr(len(dims))
					r := dom.CompareIn(ds.Point(int(rows[resIdx[e]])), pp, delta)
					if dom.Kills(r, delta, strict) {
						ok = false
						break
					}
				}
				alive[t] = ok
			}
		})
		if err != nil {
			panic(fmt.Sprintf("gpu: SDSC launch failed: %v", err))
		}
		stats.Add(st)

		// Host-side epilogue: intra-tile filtering and appends, as the
		// sequential tail of each iteration.
		tileRows := make([]int32, 0, tlen)
		backref := make(map[int32]int32, tlen)
		for t := 0; t < tlen; t++ {
			if alive[t] {
				r := rows[tile[t]]
				backref[r] = tile[t]
				tileRows = append(tileRows, r)
			}
		}
		kept := intraTile(ds, tileRows, delta, strict)
		for _, r := range kept {
			k := backref[r]
			resMed = append(resMed, medM[k])
			resQuart = append(resQuart, quartM[k])
			resIdx = append(resIdx, k)
			survivors = append(survivors, r)
		}
	}
	slices.Sort(survivors)
	return survivors
}

// intraTile removes points dominated within their own tile.
func intraTile(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	out := rows[:0]
	for i, p := range rows {
		pp := ds.Point(int(p))
		dead := false
		for j, q := range rows {
			if i == j {
				continue
			}
			if dom.Kills(dom.CompareIn(ds.Point(int(q)), pp, delta), delta, strict) {
				dead = true
				break
			}
		}
		if !dead {
			out = append(out, p)
		}
	}
	return out
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
			// 3×4 bytes per leaf — and compare full paths.
			b.LoadCoalesced(12 * nLeaves)
			sol.FilterLeafScan(p, func(int) {
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

			// Asynchronous copy of the finished bitmask to the host cube.
			b.LoadCoalesced(templates.StateBytes(d) / 2)
			ctx.Cube.Insert(ctx.OrigRow[p], sol.NotInS())
		})
		if err != nil {
			panic(fmt.Sprintf("gpu: MDMC launch failed: %v", err))
		}
		// Finished bitmasks stream back to the host cube asynchronously.
		st.Add(gpusim.Transfer((hi - lo) * templates.StateBytes(ctx.D) / 2))
		stats.Add(st)
	}
}

// MDMC runs the full MDMC template on a single device: shared prologue on
// the CPU, all point tasks on the GPU.
func MDMC(ds *data.Dataset, dev *gpusim.Device, threads, maxLevel int, stats *StatsCollector) *templates.MDMCResult {
	return MDMCTraced(ds, dev, threads, maxLevel, stats, nil)
}

// MDMCTraced is MDMC recording the prologue phases and the device's point
// pass as spans on the device's track.
func MDMCTraced(ds *data.Dataset, dev *gpusim.Device, threads, maxLevel int,
	stats *StatsCollector, tr *obs.Trace) *templates.MDMCResult {
	ctx := templates.PrepareMDMCTraced(ds, threads, 3, maxLevel, tr)
	kernel := PointKernel(dev, stats)
	// One launch per chunk; a single puller suffices since the launch
	// itself fans out across the device's resident blocks.
	h := tr.Begin(dev.Name, obs.CatChunk, "points")
	h.SetN(int64(ctx.NumTasks()))
	kernel(ctx, 0, ctx.NumTasks())
	h.End()
	return &templates.MDMCResult{Cube: ctx.Cube, ExtRows: ctx.ExtRows}
}

// SDSC runs the full SDSC template on a single device.
func SDSC(ds *data.Dataset, dev *gpusim.Device, maxLevel int, stats *StatsCollector) *lattice.Lattice {
	return SDSCTraced(ds, dev, maxLevel, stats, nil, nil)
}

// SDSCTraced is SDSC recording level and per-cuboid spans on tracks named
// after the device, reporting completed cuboids to onCuboid (both the
// trace and the callback may be nil).
func SDSCTraced(ds *data.Dataset, dev *gpusim.Device, maxLevel int,
	stats *StatsCollector, tr *obs.Trace, onCuboid func(delta mask.Mask)) *lattice.Lattice {
	return lattice.TopDown(ds, CuboidHook(dev, stats), lattice.TopDownOptions{
		CuboidThreads: 1,
		MaxLevel:      maxLevel,
		Trace:         tr,
		TrackPrefix:   dev.Name,
		OnCuboid:      onCuboid,
	})
}
