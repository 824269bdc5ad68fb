package cluster

import (
	"fmt"
	"slices"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// mergeStats is one merge in hardware-independent counts: lanes handed in,
// (shard, label) groups built, (candidate, foreign group) pairs the labels
// ruled out before any dominance test, and 64-lane word sweeps run.
type mergeStats struct {
	cands, groups      int
	labelSkips, sweeps uint64
}

func (s mergeStats) String() string {
	return fmt.Sprintf("groups=%d label_skips=%d sweeps=%d", s.groups, s.labelSkips, s.sweeps)
}

// labelGroup holds the lanes of one shard's frame that share a label, in
// frame order: ascending δ-sum, the precondition of stop points.
type labelGroup struct {
	label mask.Mask
	bs    *data.BlockSet
}

// mergeFrames reduces the per-shard frames of one subspace δ (nil entries:
// shards that failed) to the ids of the exact skyline of their union,
// ascending and without duplicates — the merge step of partition-and-merge
// skyline processing.
//
// Each lane is labelled against the per-column medians of the union (bit j
// set iff v_j < med_j) and appended, in frame order, to the block set of its
// (shard, label) — blocks of one verdict word, since a frame spreads over up
// to 2^|δ| groups. A candidate of shard s with label m is then probed, with
// stop points, only against groups of shards ≠ s whose label ⊇ m. Two lemmas
// make that exact:
//
// Foreign-only. A frame is its shard's local S_δ, whose members do not
// dominate each other, so a candidate has no dominator in its own frame. If
// it is dominated at all then — dominance being a strict partial order on a
// finite set — a member b of the union's skyline dominates it. b is not
// stored on the candidate's shard (the candidate would not be in that
// shard's local skyline) and is in its own shard's local skyline. So b sits
// in a foreign frame. This covers the reachable part of a partial answer,
// and K = 1, which costs no sweep at all.
//
// Label. b ≺_δ a ⇒ b_j ≤ a_j on every j of δ ⇒ (a_j < med_j ⇒ b_j < med_j) ⇒
// label(a) ⊆ label(b): a group whose label misses a bit of m holds no
// dominator of the candidate. This is the one-level case of the label test
// in skyline.HybridInstrumented; Hybrid's two-level labels, measured, make
// groups of one or two lanes here.
//
// Duplicate ids are removed from the output, not the input: during a split's
// prune window parent and child both ship the copied rows, identical points
// never dominate each other, so both copies survive or neither does.
func mergeFrames(frames []*cuboidFrame, delta mask.Mask) ([]int32, mergeStats) {
	var st mergeStats
	nonEmpty := 0
	for _, f := range frames {
		if f != nil && len(f.ids) > 0 {
			st.cands += len(f.ids)
			nonEmpty++
		}
	}
	out := make([]int32, 0, st.cands)
	if nonEmpty <= 1 {
		for _, f := range frames {
			if f != nil {
				out = append(out, f.ids...)
			}
		}
		slices.Sort(out)
		return slices.Compact(out), st
	}

	k := mask.Count(delta)
	med := make([]float32, k)
	col := make([]float32, 0, st.cands)
	for j := range med {
		col = col[:0]
		for _, f := range frames {
			if f != nil {
				col = append(col, f.cols[j]...)
			}
		}
		data.SelectRanks(col, len(col)/2)
		med[j] = col[len(col)/2]
	}

	groups := make([][]labelGroup, len(frames))
	defer func() {
		for _, g := range slices.Concat(groups...) {
			data.PutBlockSet(g.bs)
		}
	}()
	pq := make([]float32, k)
	index := map[mask.Mask]int{}
	for s, f := range frames {
		if f == nil {
			continue
		}
		clear(index)
		for i, id := range f.ids {
			var label mask.Mask
			for j, c := range f.cols {
				pq[j] = c[i]
				if c[i] < med[j] {
					label |= mask.Bit(j)
				}
			}
			gi, ok := index[label]
			if !ok {
				gi = len(groups[s])
				index[label] = gi
				groups[s] = append(groups[s], labelGroup{label, data.GetBlockSet(k, 64)})
			}
			groups[s][gi].bs.Append(pq, id, f.sums[i])
		}
		st.groups += len(groups[s])
	}

	var tally dom.KernelTally
	var foreign []*data.BlockSet
	for s, gs := range groups {
		for _, g := range gs {
			foreign = foreign[:0]
			for t, others := range groups {
				if t == s {
					continue
				}
				for _, o := range others {
					if o.label&g.label == g.label {
						foreign = append(foreign, o.bs)
					} else {
						st.labelSkips += uint64(g.bs.Len())
					}
				}
			}
			for _, b := range g.bs.Blocks {
			lanes:
				for lane := 0; lane < b.N; lane++ {
					for j, c := range b.Cols {
						pq[j] = c[lane]
					}
					for _, bs := range foreign {
						if dom.BlocksAnyDominator(bs, pq, b.Sums[lane], false, true, &tally) {
							continue lanes
						}
					}
					out = append(out, b.Rows[lane])
				}
			}
		}
	}
	st.sweeps = tally.Sweeps
	tally.Flush()
	slices.Sort(out)
	return slices.Compact(out), st
}
