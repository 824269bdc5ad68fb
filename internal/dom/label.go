// The label word sweep: MDMC's filter and refine read nothing but path labels
// until a leaf earns a dominance test, and they read them 64 tree entries at a
// time from the static tree's flat label columns.
//
// For a point p with labels (mp, qp, op) and a tree entry with labels
// (mq, qq, oq), write dm = mq ^ mp, dq = qq ^ qp, do = oq ^ op: the dimensions
// on which the two lie on different sides of the median, of their half's
// quartile, of their quarter's octile. A coarser level decides a dimension
// before a finer one is consulted, so the composite strict mask of
// stree.CompositeStrictLabels, in either direction, is
//
//	c = dm&selM | dq&selQ&^dm | do&selO&^dm&^dq
//
// where the selectors pick, of the dimensions that differ, those on which the
// dominating side is the one below the pivot: (^mp, ^qp, ^op) for "every point
// of the entry strictly dominates p" (the filter; selO = 0 when it reads two
// levels), (mp, qp, op) for "p strictly dominates every point of the entry".
// The refine wants the complement of the latter within the full space — the
// optimistic mask, the dimensions on which a leaf's points might be ≤ p — so
// the mask a sweep tests is
//
//	x = (c ^ flip) & full
//
// with flip = full for the refine and 0 for the filter. An entry is live when
// x ≠ 0 and bit x − 1 of the subspace set B_{p∉S⁺} is clear: it still has
// something to say. Everything else about the entry is skipped.
package dom

import "skycube/internal/mask"

// LabelSel holds the eight constants of one point's label sweep. The assembly
// reads the fields by offset; RefineSel and FilterSel are the only
// constructors.
type LabelSel struct {
	mp, qp, op       mask.Mask // the point's own labels
	selM, selQ, selO mask.Mask // which differing dimensions count, per level
	flip, full       mask.Mask
}

// RefineSel is the selector of the refine sweep over a tree's leaf columns:
// LabelMask is then the optimistic mask full &^ c(p → entry).
// Pass op = 0 on a depth-2 tree.
func RefineSel(mp, qp, op, full mask.Mask) LabelSel {
	return LabelSel{mp: mp, qp: qp, op: op, selM: mp, selQ: qp, selO: op, flip: full, full: full}
}

// FilterSel is the selector of the filter sweep: LabelMask is then c(entry → p)
// over the top two levels, or all three when levels ≥ 3. A two-level sweep
// never looks at the third column (selO = 0).
func FilterSel(mp, qp, op mask.Mask, levels int, full mask.Mask) LabelSel {
	s := LabelSel{mp: mp, qp: qp, op: op, selM: ^mp, selQ: ^qp, full: full}
	if levels >= 3 {
		s.selO = ^op
	}
	return s
}

// LabelMask is the mask x of one entry with labels (m, q, o) — the definition
// the word sweep is held to.
func LabelMask(m, q, o mask.Mask, s *LabelSel) mask.Mask {
	dm, dq, do := m^s.mp, q^s.qp, o^s.op
	c := dm&s.selM | dq&s.selQ&^dm | do&s.selO&^dm&^dq
	return (c ^ s.flip) & s.full
}

// LabelWord returns the live lanes of word w of the label columns med, quart
// and oct: bit i is set iff x = LabelMask of entry 64w + i is non-zero and bit
// x − 1 of seen is clear. The columns must hold all 64 entries of the word
// (stree pads them), seen every bit up to full − 1; lanes past the last real
// entry are the caller's to mask. On amd64 with AVX2 this is labelWordAVX2
// (label_amd64.s); the Go loop is the portable build and the oracle
// FuzzLabelWordEquivalence holds the assembly to.
func LabelWord(med, quart, oct []mask.Mask, w int, s *LabelSel, seen []uint64) uint64 {
	base := w << 6
	m := med[base : base+64 : base+64]
	q := quart[base : base+64 : base+64]
	o := oct[base : base+64 : base+64]
	// x ≤ full: the one bounds check of the assembly's gather.
	seen = seen[: (s.full-1)>>6+1 : (s.full-1)>>6+1]
	if useAVX2 {
		return labelWordAVX2(&m[0], &q[0], &o[0], s, &seen[0])
	}
	var live uint64
	for i := 0; i < 64; i++ {
		x := LabelMask(m[i], q[i], o[i], s)
		if x != 0 && seen[(x-1)>>6]>>((x-1)&63)&1 == 0 {
			live |= 1 << uint(i)
		}
	}
	return live
}
