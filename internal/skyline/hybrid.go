package skyline

import (
	"slices"
	"sync"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// hybridTileSize is α, the number of points processed per tile.
const hybridTileSize = 512

// hybridFilter is the multicore algorithm in the style of Hybrid (Chester,
// Šidlauskas, Assent, Bøgh — ICDE 2015; paper §5.1): a compact, fixed
// two-level, array-based tree of *global* median/quartile pivots replaces
// the recursive SkyTree, and the input is consumed in tiles so threads
// cooperate on one shared, read-mostly result structure.
//
// Points are ordered by their L1 norm over δ, which guarantees every
// (strict or non-strict) dominator of a point appears in an earlier tile or
// in the point's own tile; cross-tile work is the data-parallel hook.
func hybridFilter(ds *data.Dataset, rows []int32, delta mask.Mask, strict bool, threads int) []int32 {
	if threads < 1 {
		threads = 1
	}
	if len(rows) <= hybridTileSize || threads == 1 && len(rows) <= 4*hybridTileSize {
		return pivotFilter(ds, rows, delta, strict)
	}
	dims := mask.Dims(delta)
	medM, quartM, sum, ord := HybridPrepare(ds, rows, dims)
	n := len(rows)

	// Group members live in small SoA blocks appended in tile (= ascending
	// δ-sum) order, so phase A is one kernel sweep per group and meets the
	// likeliest dominators first. No stop point: a group holds only members
	// of earlier tiles, which sum to no more than the probe.
	type group struct {
		med, quart mask.Mask
		bs         *data.BlockSet
	}
	var groups []group
	groupIdx := make(map[uint64]int)
	survivors := make([]int32, 0, n/4)

	// Per-tile scratch, allocated once: alive flags by tile position, the
	// BNL input, each kept row's tile position, and one projection buffer per
	// phase-A worker plus one for phase B.
	var tile []int32
	alive := make([]bool, hybridTileSize)
	tileRows := make([]int32, 0, hybridTileSize)
	pos := make([]int32, hybridTileSize)
	pqs := make([]float32, (threads+1)*len(dims))
	var wg sync.WaitGroup

	// Phase A (parallel): prune tile points against the global result,
	// group by group, with label tests before any dominance test.
	work := func(w, lo, hi int) {
		defer wg.Done()
		var tally dom.KernelTally
		pq := pqs[w*len(dims):][:len(dims)]
		for t := lo; t < hi; t++ {
			k := tile[t]
			data.ProjectInto(pq, ds.Point(int(rows[k])), dims)
			mp, qp := medM[k], quartM[k]
			ok := true
			for gi := range groups {
				g := &groups[gi]
				// Group members are guaranteed strictly worse than the
				// point on `worse`; if that intersects δ they cannot
				// dominate it.
				worse := CompositeStrict2(mp, qp, g.med, g.quart)
				if worse&delta != 0 {
					continue
				}
				// Conversely, if the group is guaranteed strictly
				// better on all of δ, the point dies with no DT.
				better := CompositeStrict2(g.med, g.quart, mp, qp)
				if better&delta == delta {
					ok = false
					break
				}
				if dom.BlocksAnyDominator(g.bs, pq, sum[k], strict, false, &tally) {
					ok = false
					break
				}
			}
			alive[t] = ok
		}
		tally.Flush()
	}

	for tileStart := 0; tileStart < n; tileStart += hybridTileSize {
		tile = ord[tileStart:min(tileStart+hybridTileSize, n)]
		tlen := len(tile)
		tn := min(threads, tlen)
		wg.Add(tn)
		for w := 0; w < tn; w++ {
			go work(w, w*tlen/tn, (w+1)*tlen/tn)
		}
		wg.Wait()

		// Phase B (sequential): intra-tile filtering among survivors. The
		// L1 order makes earlier tile members the only possible intra-tile
		// dominators, but BNL handles any order regardless.
		tileRows = tileRows[:0]
		for t, k := range tile {
			if alive[t] {
				tileRows = append(tileRows, rows[k])
			}
		}
		kept := bnlFilter(ds, tileRows, delta, strict)

		// kept is row-sorted, so a binary search gives each alive position
		// its kept index; alive narrows to the kept positions. Survivors join
		// their (med, quart) group in kept order.
		for t, k := range tile {
			if !alive[t] {
				continue
			}
			ki, ok := slices.BinarySearch(kept, rows[k])
			if alive[t] = ok; ok {
				pos[ki] = int32(t)
			}
		}
		for _, t := range pos[:len(kept)] {
			k := tile[t]
			key := uint64(medM[k])<<32 | uint64(quartM[k])
			gi, exists := groupIdx[key]
			if !exists {
				gi = len(groups)
				groups = append(groups, group{med: medM[k], quart: quartM[k], bs: data.NewBlockSet(len(dims), 64)})
				groupIdx[key] = gi
			}
			survivors = append(survivors, rows[k])
		}
		// Members are appended in tile order, not kept's row order: each
		// group's lanes stay in non-decreasing δ-sum order across all tiles.
		pq := pqs[threads*len(dims):][:len(dims)]
		for t, k := range tile {
			if !alive[t] {
				continue
			}
			r := rows[k]
			g := &groups[groupIdx[uint64(medM[k])<<32|uint64(quartM[k])]]
			data.ProjectInto(pq, ds.Point(int(r)), dims)
			g.bs.Append(pq, r, sum[k])
		}
	}

	slices.Sort(survivors)
	return survivors
}

// HybridPrepare is everything hybridFilter does before its first dominance
// test, all of it linear in len(rows): the global two-level labels over only
// the relevant dimensions (§5.1: partition on the subspace's dimensions when
// hooked into a cuboid), each row's δ-sum, and the tile order — L1 norm
// ascending, ties by row for determinism. All four are indexed like rows.
// Exported because the simulated-device filter (internal/gpu) and the memsim
// probes (internal/counters) run this prologue, not a copy of it.
func HybridPrepare(ds *data.Dataset, rows []int32, dims []int) (medM, quartM []mask.Mask, sum []float32, ord []int32) {
	med, quart := subspacePivots(ds, rows, dims)
	n := len(rows)
	medM = make([]mask.Mask, n)
	quartM = make([]mask.Mask, n)
	sum = make([]float32, n)
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
		medM[k], quartM[k], sum[k] = m, q, s
	}
	return medM, quartM, sum, data.SumOrder(sum, rows)
}

// CompositeStrict2 is the two-level label comparison: the subspace on which
// any point labelled (medQ, quartQ) is guaranteed strictly better than any
// point labelled (medP, quartP). Exported for the probe-instrumented
// variants used in the hardware-counter experiments.
func CompositeStrict2(medQ, quartQ, medP, quartP mask.Mask) mask.Mask {
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
