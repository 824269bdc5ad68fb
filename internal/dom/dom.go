// Package dom implements dominance tests (DTs) and mask tests (MTs), the
// comparison kernels of every skyline and skycube algorithm in this
// repository (paper §2.2, Definition 1, and Appendix B.2 Equation 1).
//
// Convention: smaller values are better on every dimension (paper
// footnote 2).
package dom

import (
	"math/bits"

	"skycube/internal/mask"
)

// Rel captures the complete per-dimension relationship between two points
// as three bitmasks. Exactly one of Lt, Eq, Gt (= ^(Lt|Eq) within the
// dimensionality) holds per dimension.
type Rel struct {
	Lt mask.Mask // bit i set iff p[i] < q[i]
	Eq mask.Mask // bit i set iff p[i] == q[i]
}

// Leq returns the bitmask B_{p≤q}.
func (r Rel) Leq() mask.Mask { return r.Lt | r.Eq }

// Compare computes the per-dimension relationship masks between p and q.
// This is the exact dominance test's data load: it reads all d coordinates
// of both points (the paper's DT cost) and exits early on none of them. It is
// the one row DT: the baselines, PSkyline and the QSkycube oracle run it, and
// so do MDMC's refine and the delta flush.
//
// On amd64 with AVX2 (useAVX2, chosen once at package init from CPUID) the
// body is compareAVX2 (compare_amd64.s): eight coordinates per VCMPPS pair,
// the top group loaded by VMASKMOVPS so no byte past either slice is read.
// Everywhere else — arm64, older amd64, -tags purego — and as the oracle
// FuzzCompareEquivalence holds the assembly to, it is the Go loop below.
// Both compare with Go's < and ==: NaN is neither less nor equal, −0 == +0.
//
// Contract: p and q must have the same length — comparing points of
// different dimensionality is always a programming error, and silently
// truncating to the shorter point would fabricate a Rel claiming equality
// beyond it, so mismatches panic. Aliasing is fine: Compare(p, p) returns
// {Lt: 0, Eq: full} (for NaN-free p), and p and q may overlap arbitrarily
// since both are only read.
func Compare(p, q []float32) Rel {
	if len(p) != len(q) {
		panic("dom: Compare on points of different dimensionality")
	}
	if useAVX2 && len(p) > 0 {
		lt, eq := compareAVX2(&p[0], &q[0], len(p))
		return Rel{Lt: lt, Eq: eq}
	}
	// The portable body walks the coordinates from the last to the first, so
	// each verdict bit enters its mask by a constant one-bit shift.
	q = q[:len(p)]
	var lt, eq mask.Mask
	for i := len(p) - 1; i >= 0; i-- {
		pi, qi := p[i], q[i]
		var l, e mask.Mask
		if pi < qi {
			l = 1
		}
		if pi == qi {
			e = 1
		}
		lt = lt<<1 | l
		eq = eq<<1 | e
	}
	return Rel{Lt: lt, Eq: eq}
}

// CompareIn computes the relationship masks over only the dimensions of δ,
// loading at most |δ| coordinates per point. Bits outside δ are zero.
// The paper (§5.1) notes that for the CPU the projected DT is *not* cheaper
// than comparing all dimensions and masking afterwards; this variant exists
// for the GPU specialisation (§6.1), where projected DTs reduce loads, and
// for tests of that claim.
func CompareIn(p, q []float32, delta mask.Mask) Rel {
	var lt, eq mask.Mask
	for rem := delta; rem != 0; rem &^= rem & -rem {
		i := trailingZeros(rem)
		pi, qi := p[i], q[i]
		// Same branch-free accumulation shape as Compare: two independent
		// compares per dimension, no else-chain the compiler must order.
		var l, e mask.Mask
		if pi < qi {
			l = 1
		}
		if pi == qi {
			e = 1
		}
		lt |= l << uint(i)
		eq |= e << uint(i)
	}
	return Rel{Lt: lt, Eq: eq}
}

func trailingZeros(m mask.Mask) int {
	// math/bits.TrailingZeros32 compiles to a single TZCNT/BSF instruction;
	// CompareIn calls this once per set bit of δ, so it must not loop.
	return bits.TrailingZeros32(uint32(m))
}

// DominatesIn reports whether p ≺_δ q: p dominates q in subspace δ
// (Definition 1): (B_{p=q} & δ) ≠ δ and (B_{p≤q} & δ) = δ.
func DominatesIn(p, q []float32, delta mask.Mask) bool {
	r := Compare(p, q)
	return r.Eq&delta != delta && r.Leq()&delta == delta
}

// StrictlyDominatesIn reports whether p ≺≺_δ q: (B_{p<q} & δ) = δ.
func StrictlyDominatesIn(p, q []float32, delta mask.Mask) bool {
	r := Compare(p, q)
	return r.Lt&delta == delta
}

// RelDominates evaluates Definition 1 on precomputed masks.
func RelDominates(r Rel, delta mask.Mask) bool {
	return r.Eq&delta != delta && r.Leq()&delta == delta
}

// RelStrictlyDominates evaluates strict dominance on precomputed masks.
func RelStrictlyDominates(r Rel, delta mask.Mask) bool {
	return r.Lt&delta == delta
}

// Kills is the removal predicate of every skyline filter on r = Compare(q, p)
// (or CompareIn over δ): building S⁺_δ (strict) removes p on q ≺≺_δ p,
// building S_δ removes it on q ≺_δ p.
func Kills(r Rel, delta mask.Mask, strict bool) bool {
	if strict {
		return RelStrictlyDominates(r, delta)
	}
	return RelDominates(r, delta)
}

// MaskTest evaluates Equation 1 of the paper (Appendix B.2): given the
// relationships of p and q to a common pivot π — bPivP = B_{π≤p},
// bPivQ = B_{π≤q} — it reports whether p *could* dominate q in δ. A false
// result proves p ⊀_δ q via transitivity (there is a dimension i ∈ δ with
// q[i] < π[i] ≤ p[i]); a true result is inconclusive and requires a DT.
//
// The `& δ` projection is fused into the test exactly as §5.1 describes,
// rather than projecting the stored masks.
func MaskTest(bPivP, bPivQ, delta mask.Mask) bool {
	return (bPivQ|^bPivP)&delta == delta
}

// StrictTransitive returns the subspace in which q is *guaranteed* to
// strictly dominate p given only tree path labels: bQ and bP are the masks
// of dimensions on which q (resp. p) is strictly below a common pivot.
// On every dimension of the result, q < pivot ≤ p. A zero result conveys
// nothing. This is the filter-phase primitive of MDMC (§5.2, §6.2).
func StrictTransitive(bQ, bP mask.Mask) mask.Mask {
	return bQ &^ bP
}
