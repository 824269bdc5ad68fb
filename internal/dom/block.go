// Block dominance kernels: 64-lane bitmask sweeps over the SoA layout of
// internal/data, plus sorted stop-point termination.
//
// The row compare in dom.go tests one pair of points over all d coordinates;
// it is what the baselines and the oracle run. The block kernels are
// what the templates, the delta flush and the cluster merge run: one query
// point against a whole block is d sequential column sweeps accumulating a ≤
// verdict word, exactly the compare-to-mask shape VSkyline vectorises and the
// GPU specialisation coalesces. Combined with ascending δ-sum block order
// (Ciaccia & Martinenghi's sort-based filtering), a scan also gains a stop
// point: once the next block's minimum sum exceeds the query's, no later lane
// can dominate it and the sweep terminates.
//
// There are two sweeps. blockLeqWord gives the live lanes ≤ the query on
// every column, which are its dominators, strict or not, and its exact
// duplicates. Every scan — AnyDominatorIn, BlocksVerdict, StrictWord — runs
// it once per word and then reads only the lanes it left (lessCols) to tell
// the three apart, because a word that has any is rare. RelWord keeps the
// columns apart instead: per column, the live lanes ≤ and < the query, from
// which a caller reads dominance in any subspace of the columns with a few
// word ANDs and ORs — the delete flush's survivor sweep, which decides many
// subspaces per probe.
//
// Every word a kernel sweeps is a full word: block columns have backing store
// for all 64 lanes of it (data.Block's layout rule), so the lane loop has one
// constant trip count and the lanes past Block.N — zeros or stale values —
// produce bits that Alive clears. Per-point early exit exists only at word
// granularity: a ≤ sweep stops when the whole word's verdict is zero (RelWord
// has no verdict to stop on and sweeps every column).
//
// Each sweep has two implementations. On amd64 with AVX2 (block_amd64.s,
// leqWordAVX2 and relWordAVX2; chosen once at package init from CPUID, never
// by a caller) a column is eight 8-lane VCMPPS/VMOVMSKPS steps per predicate.
// Everywhere else — arm64, older amd64, -tags purego — and as the oracle the
// fuzz targets hold the assembly to, it is the Go loop of blockLeqWord and
// RelWord; blockLeqWord's compiles to a rolled 64-trip loop of one UCOMISS,
// one BTSQ and one CMOV per lane (no unrolling, no vector code; still faster
// than a SETcc accumulation or a float-bits sign extraction).
//
// Every kernel is bit-for-bit equivalent to the row compare
// (FuzzBlockKernelEquivalence and FuzzRelWordEquivalence enforce this);
// dominance semantics are those of Definition 1 with the projection already
// applied, i.e. the block's K columns ARE the subspace δ.
package dom

import (
	"math/bits"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// wordArgs is how word w of b reaches the assembly: the address of its first
// lane in column 0, the byte distance between columns (data.Block's layout
// rule: equally strided, len — not cap — floats apart) and the column count.
// The slice expressions are the routine's bounds checks: 64 lanes of backing
// store and one query coordinate per column. A block always has a column.
func wordArgs(b *data.Block, w int, pq []float32) (col0 *float32, stride uintptr, k int) {
	col := b.Cols[0]
	k = len(b.Cols)
	_ = pq[k-1]
	return &col[w<<6 : w<<6+64][0], uintptr(len(col)) * 4, k
}

// AnyDominatorIn reports whether any live lane of b dominates the projected
// query pq — strictly (every column less) when strict, else Definition 1
// (every column ≤, at least one <). Each word is swept once for the lanes ≤ pq
// (blockLeqWord), and only those lanes are read again: a lane is a dominator
// when it is less on every column, or, unless strict, on any. A word whose ≤
// lanes are all duplicates of pq does not end the scan.
func AnyDominatorIn(b *data.Block, pq []float32, strict bool, t *KernelTally) bool {
	words := (b.N + 63) >> 6
	for w := 0; w < words; w++ {
		t.Sweeps++
		for le := blockLeqWord(b, w, pq); le != 0; le &= le - 1 {
			less := lessCols(b, w<<6+bits.TrailingZeros64(le), pq)
			if less == len(b.Cols) || !strict && less > 0 {
				return true
			}
		}
	}
	return false
}

// BlocksAnyDominator scans a block set for a dominator of pq whose δ-sum is
// psum. With useStop set the set must be in ascending-sum append order
// (data.SortedBlocksOf, or caller-maintained): the scan stops at the first
// block whose MinSum exceeds psum, because float32 sum monotonicity
// guarantees every dominator of pq sums to at most psum.
func BlocksAnyDominator(bs *data.BlockSet, pq []float32, psum float32, strict bool, useStop bool, t *KernelTally) bool {
	for _, b := range bs.Blocks {
		if useStop && b.MinSum() > psum {
			t.StopExits++
			return false
		}
		if AnyDominatorIn(b, pq, strict, t) {
			return true
		}
	}
	return false
}

// Verdict is what the live lanes of a block set say about a probe, ordered so
// that the verdicts of several sets combine with max.
type Verdict uint8

const (
	// Undominated: no lane dominates the probe.
	Undominated Verdict = iota
	// Dominated: some lane dominates the probe (Definition 1), none strictly.
	Dominated
	// StrictlyDominated: some lane is less than the probe on every column.
	StrictlyDominated
)

// blockLeqWord computes, for word w of block b, the live lanes that are ≤ pq
// on every column: the probe's dominators, strict or not, and its exact
// duplicates. One compare per lane and column: which of the three a lane is
// only matters on the rare word that has one.
func blockLeqWord(b *data.Block, w int, pq []float32) uint64 {
	leAll := b.Alive[w]
	if leAll == 0 {
		return 0
	}
	if useAVX2 {
		col0, stride, k := wordArgs(b, w, pq)
		return leqWordAVX2(col0, stride, k, &pq[0], leAll)
	}
	base := w << 6
	for j, col := range b.Cols {
		pv := pq[j]
		sub := col[base : base+64 : base+64]
		var le uint64
		for i := 0; i < 64; i++ {
			if sub[i] <= pv {
				le |= 1 << uint(i)
			}
		}
		leAll &= le
		if leAll == 0 {
			return 0
		}
	}
	return leAll
}

// lessCols counts the columns on which a lane is < pq: all of them for a
// strict dominator, none for a duplicate of a lane ≤ pq.
func lessCols(b *data.Block, lane int, pq []float32) int {
	less := 0
	for j, col := range b.Cols {
		if col[lane] < pq[j] {
			less++
		}
	}
	return less
}

// BlocksVerdict classifies pq against every live lane of bs in one scan: each
// word is swept once for the lanes ≤ pq everywhere, and only those lanes are
// then read again to tell a strict dominator from a dominator from a
// duplicate. The scan ends at the first strict dominator; a non-strict one
// does not end it, since a later lane may still dominate strictly.
func BlocksVerdict(bs *data.BlockSet, pq []float32, t *KernelTally) Verdict {
	v := Undominated
	for _, b := range bs.Blocks {
		words := (b.N + 63) >> 6
		for w := 0; w < words; w++ {
			t.Sweeps++
			for le := blockLeqWord(b, w, pq); le != 0; le &= le - 1 {
				less := lessCols(b, w<<6+bits.TrailingZeros64(le), pq)
				if less == len(b.Cols) {
					return StrictlyDominated
				}
				if less > 0 {
					v = Dominated
				}
			}
		}
	}
	return v
}

// StrictWord returns the live lanes of word w of b that are < pq on every
// column. It is BlocksVerdict's scan of one word: the ≤ sweep, then the strict
// check on the lanes it left.
func StrictWord(b *data.Block, w int, pq []float32) uint64 {
	le := blockLeqWord(b, w, pq)
	for m := le; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if lessCols(b, w<<6+i, pq) != len(b.Cols) {
			le &^= 1 << uint(i)
		}
	}
	return le
}

// RelWord writes, for word w of b and every column j, the live lanes ≤ pq[j]
// to leq[j] and the live lanes < pq[j] to lt[j]; leq and lt hold a word per
// column. A lane dominates pq in a subspace δ of the columns iff it is in
// leq[j] for every j ∈ δ and in lt[j] for some, so one call answers every δ
// for 64 lanes (WordDominators). On amd64 with AVX2 this is relWordAVX2
// (block_amd64.s); the Go loop is the portable build and the oracle
// FuzzRelWordEquivalence holds the assembly to.
func RelWord(b *data.Block, w int, pq []float32, leq, lt []uint64) {
	k := len(b.Cols)
	leq, lt = leq[:k:k], lt[:k:k]
	alive := b.Alive[w]
	if useAVX2 {
		col0, stride, _ := wordArgs(b, w, pq)
		relWordAVX2(col0, stride, k, &pq[0], alive, &leq[0], &lt[0])
		return
	}
	base := w << 6
	for j, col := range b.Cols {
		pv := pq[j]
		sub := col[base : base+64 : base+64]
		var le, l uint64
		for i := 0; i < 64; i++ {
			if sub[i] <= pv {
				le |= 1 << uint(i)
			}
			if sub[i] < pv {
				l |= 1 << uint(i)
			}
		}
		leq[j], lt[j] = le&alive, l&alive
	}
}

// WordDominators reads RelWord's masks in the subspace δ of the columns: the
// lanes ≤ the probe on every dimension of δ and < it on one, its dominators
// in δ.
func WordDominators(leq, lt []uint64, delta mask.Mask) uint64 {
	all, any := ^uint64(0), uint64(0)
	for m := delta; m != 0 && all != 0; m &= m - 1 {
		j := bits.TrailingZeros32(m)
		all &= leq[j]
		any |= lt[j]
	}
	return all & any
}

// CompareBlock computes Compare(point q, pp) for every q in the half-open
// leaf-sorted range [lo, hi) of the column-major view cols (cols[j][q] is
// point q's coordinate on dimension j), writing the Rel masks into
// out[:hi-lo]: dimensions-outer, so each column is one sequential sweep, and
// the two independent compares per lane mirror Compare's branch-free
// accumulation exactly. No production code calls it. MDMC's leaf DT is a row
// compare, because the tree's leaves hold one or two points and a sweep ran for
// one lane. The delete flush's survivor sweep runs RelWord, whose masks are
// per column rather than per lane. It stays for benchmark/probes.go's
// dom.compare_block_ns_per_row.
func CompareBlock(cols [][]float32, lo, hi int, pp []float32, out []Rel) {
	n := hi - lo
	for i := 0; i < n; i++ {
		out[i] = Rel{}
	}
	for j, col := range cols {
		pv := pp[j]
		bit := uint(j)
		for i, v := range col[lo:hi] {
			var l, e mask.Mask
			if v < pv {
				l = 1
			}
			if v == pv {
				e = 1
			}
			out[i].Lt |= l << bit
			out[i].Eq |= e << bit
		}
	}
}
