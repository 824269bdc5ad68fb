package counters

import (
	"slices"
	"sync"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
	"skycube/internal/memsim"
	"skycube/internal/skyline"
)

// barrierCycles is the modelled cost of one fork/join barrier per
// participating thread (≈ a microsecond at the modelled clock).
const barrierCycles = 5000

// probedTiledFilter is the profiled build of the Hybrid-style tiled
// flat-array skyline used by the ST and SD hooks. It runs the production
// prologue (skyline.HybridPrepare: labels to the depth skyline.LabelDepth
// derives, L1-norm tile order) and then still models the two-phase tile loop
// the engine had before it fused its passes — a strict and a non-strict run,
// each a per-tile parallel prune against the accumulated result groups and a
// sequential intra-tile pass — so the probes see the groups the code that
// runs would form, not yet its single pass (ROADMAP item 3(c)). Probes record
// the sequential label-array loads, the DT point loads, and the result-group
// walks.
//
// With one probe the run is single-threaded (the STSC hook); with several,
// each tile's phase A is split across the probes' goroutines (the SDSC
// hook), so the same access stream lands on the modelled sockets the way
// the real algorithm's does.
func probedTiledFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, probes []*memsim.Thread) []int32 {
	const tileSize = 512
	n := len(rows)
	if n == 0 {
		return nil
	}
	dims := mask.Dims(delta)
	medM, quartM, _, ord := skyline.HybridPrepare(ds, rows, dims)
	// What the prologue reads, charged in the order it reads it: when there
	// are labels, one column scan per dimension for the pivots, round-robin
	// over the probes (the production code computes the columns independently
	// in parallel); then every point's row once for its labels and δ-sum.
	if skyline.LabelDepth(n, len(dims)) > 0 {
		for idx, j := range dims {
			probes[idx%len(probes)].Load(dataBase+uint64(j)*uint64(n)*4, n*4)
		}
	}
	for _, q := range rows {
		probes[0].Load(pointAddr(ds, q), ds.Dims*4)
		probes[0].Instr(len(dims))
	}

	type group struct {
		med, quart mask.Mask
		members    []int32
	}
	var groups []group
	groupIdx := make(map[uint64]int)
	survivors := make([]int32, 0, n/4)
	alive := make([]bool, tileSize)

	var wg sync.WaitGroup
	for tileStart := 0; tileStart < n; tileStart += tileSize {
		tileEnd := tileStart + tileSize
		if tileEnd > n {
			tileEnd = n
		}
		tile := ord[tileStart:tileEnd]
		tlen := len(tile)

		work := func(th *memsim.Thread, lo, hi int) {
			defer wg.Done()
			for t := lo; t < hi; t++ {
				k := tile[t]
				th.Load(labelBase+uint64(k)*8, 8) // p's own labels
				mp, qp := medM[k], quartM[k]
				ok := true
			groupLoop:
				for gi := range groups {
					g := &groups[gi]
					// Sequential walk of the compact group-label array.
					th.Load(labelBase+0x1000_0000+uint64(gi)*8, 8)
					th.Instr(3)
					worse := skyline.CompositeStrict2(mp, qp, g.med, g.quart)
					if worse&delta != 0 {
						continue
					}
					better := skyline.CompositeStrict2(g.med, g.quart, mp, qp)
					if better&delta == delta {
						ok = false
						break
					}
					for _, m := range g.members {
						r := probedCompare(th, ds, rows[m], rows[k])
						if dom.Kills(r, delta, strict) {
							ok = false
							break groupLoop
						}
					}
				}
				alive[t] = ok
			}
		}
		tn := len(probes)
		if tn > tlen {
			tn = tlen
		}
		wg.Add(tn)
		for w := 0; w < tn; w++ {
			go work(probes[w], w*tlen/tn, (w+1)*tlen/tn)
		}
		wg.Wait()
		if len(probes) > 1 {
			// Fork/join barrier per tile, paid by every participating
			// thread — the synchronisation cost that limits SDSC's
			// scalability and makes hyper-threading counterproductive for
			// it (paper §7.2, Fig. 5).
			for _, th := range probes {
				th.Barrier(barrierCycles)
			}
		}

		// Intra-tile pass: Hybrid parallelises this phase over sub-blocks,
		// so its DT charges rotate across the probes.
		tileRows := make([]int32, 0, tlen)
		backref := make(map[int32]int32, tlen)
		for t := 0; t < tlen; t++ {
			if alive[t] {
				r := rows[tile[t]]
				backref[r] = tile[t]
				tileRows = append(tileRows, r)
			}
		}
		kept := probedIntraTile(probes, ds, tileRows, delta, strict)
		for _, r := range kept {
			k := backref[r]
			key := uint64(medM[k])<<32 | uint64(quartM[k])
			gi, exists := groupIdx[key]
			if !exists {
				gi = len(groups)
				groups = append(groups, group{med: medM[k], quart: quartM[k]})
				groupIdx[key] = gi
			}
			groups[gi].members = append(groups[gi].members, k)
			survivors = append(survivors, r)
		}
	}
	slices.Sort(survivors)
	return survivors
}

// probedIntraTile is the window filter over one tile's survivors, with
// each point's comparisons charged round-robin across the probes (the
// production algorithm's intra-tile phase is parallelised over sub-blocks).
func probedIntraTile(probes []*memsim.Thread, ds *data.Dataset, rows []int32, delta mask.Mask, strict bool) []int32 {
	window := make([]int32, 0, 16)
	for qi, q := range rows {
		th := probes[qi%len(probes)]
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
	slices.Sort(window)
	return window
}
