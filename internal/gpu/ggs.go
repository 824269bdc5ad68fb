package gpu

import (
	"fmt"
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gpusim"
	"skycube/internal/mask"
	"skycube/internal/skyline"
)

// ComputeGGS computes one cuboid with the GGS algorithm (Bøgh, Assent,
// Magnani — DaMoN 2013; paper §3): the sort-based, throughput-oriented GPU
// skyline that SkyAlign was shown to beat on most workloads. GGS sorts the
// input by its L1 norm and then repeatedly launches a kernel in which every
// unresolved point is compared — with plain dominance tests only, no mask
// tests — against the confirmed skyline so far; the extended skyline and
// the skyline are two such filters.
//
// It is the alternative GPU hook (hetero.GPUDevice.GGS), demonstrating the
// SDSC template's "plug in any parallel skyline algorithm" property
// (§4.2.2), and the baseline for the SkyAlign-style hook's work-efficiency
// advantage.
func ComputeGGS(dev *gpusim.Device, ds *data.Dataset, rows []int32, delta mask.Mask, stats *StatsCollector) skyline.Result {
	if rows == nil {
		rows = make([]int32, ds.N)
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	ext := ggsFilter(dev, ds, rows, delta, true, stats)
	sky := ggsFilter(dev, ds, ext, delta, false, stats)
	return skyline.Result{Skyline: sky, ExtOnly: skyline.DiffSorted(ext, sky)}
}

// ggsBlock is the number of candidate points confirmed per iteration.
const ggsBlock = 1024

func ggsFilter(dev *gpusim.Device, ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, stats *StatsCollector) []int32 {
	n := len(rows)
	if n == 0 {
		return nil
	}
	dims := mask.Dims(delta)

	// Sort by L1 norm over δ: dominators always precede the dominated.
	sums := make([]float32, n)
	for k, p := range rows {
		pt := ds.Point(int(p))
		var s float32
		for _, j := range dims {
			s += pt[j]
		}
		sums[k] = s
	}
	ord := data.SumOrder(sums, rows)

	stats.Add(gpusim.Transfer(n * len(dims) * 4)) // input upload

	confirmed := make([]int32, 0, n/4) // indices into rows, in L1 order
	survivors := make([]int32, 0, n/4)
	alive := make([]bool, ggsBlock)
	for blockStart := 0; blockStart < n; blockStart += ggsBlock {
		blockEnd := blockStart + ggsBlock
		if blockEnd > n {
			blockEnd = n
		}
		block := ord[blockStart:blockEnd]
		blen := len(block)
		blocks := (blen + deviceBlockThreads - 1) / deviceBlockThreads
		st, err := dev.Launch(blocks, deviceBlockThreads, 0, func(b *gpusim.BlockCtx) {
			lo := b.Block * deviceBlockThreads
			hi := lo + deviceBlockThreads
			if hi > blen {
				hi = blen
			}
			for t := lo; t < hi; t++ {
				k := block[t]
				pp := ds.Point(int(rows[k]))
				b.LoadCoalesced(4 * len(dims))
				ok := true
				for _, c := range confirmed {
					// GGS does a full DT per confirmed point — the
					// work-inefficiency SkyAlign's mask tests avoid.
					b.LoadScattered(1, 4*len(dims))
					b.Instr(len(dims))
					if dom.Kills(dom.CompareIn(ds.Point(int(rows[c])), pp, delta), delta, strict) {
						ok = false
						break
					}
				}
				alive[t] = ok
			}
		})
		if err != nil {
			panic(fmt.Sprintf("gpu: GGS launch failed: %v", err))
		}
		stats.Add(st)

		// Intra-block resolution on the host, then confirm survivors.
		blockRows := make([]int32, 0, blen)
		backref := make(map[int32]int32, blen)
		for t := 0; t < blen; t++ {
			if alive[t] {
				r := rows[block[t]]
				backref[r] = block[t]
				blockRows = append(blockRows, r)
			}
		}
		for _, r := range intraTile(ds, blockRows, delta, strict) {
			confirmed = append(confirmed, backref[r])
			survivors = append(survivors, r)
		}
	}
	slices.Sort(survivors)
	return survivors
}

// intraTile removes points dominated within their own tile: GGS's host
// epilogue of each launch.
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
