// Package stree builds the static, globally-pivoted partitioning tree that
// MDMC shares read-only across all devices (paper §4.3, Fig. 3), and that
// the Hybrid skyline algorithm uses in its two-level form (paper §5.1).
//
// Unlike the recursive trees of BSkyTree/OSP/VMPSP, the pivots here are
// defined globally — the per-dimension median, quartiles and octiles of the
// whole input — so a point's complete path is known from its own
// coordinates without any dominance tests, and the per-level path labels of
// two points can be compared with pure bitwise operations. The paper adds a
// third (octile) level to SkyAlign's two so each dimension carries more
// pruning information in low-dimensional subspaces.
//
// Physically, all masks live in flat arrays sorted in leaf order — a
// reverse lookup from point to tree node — so scans are sequential and, on
// the GPU device model, coalesced. The labels of the leaves and of the
// quartile-level nodes are kept a second time as flat columns, one entry per
// node, which is what MDMC's filter and refine sweep 64 entries at a time
// (dom.LabelWord).
package stree

import (
	"fmt"
	"sort"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// Node is a contiguous run of leaf-sorted positions sharing a path label.
type Node struct {
	Start, End int32     // half-open range of sorted positions
	Label      mask.Mask // this level's path label (strictly-below-pivot mask)
}

// Len returns the number of points under the node.
func (n Node) Len() int { return int(n.End - n.Start) }

// Tree is the static partitioning tree over a dataset.
type Tree struct {
	// Depth is 2 (median+quartile, SkyAlign) or 3 (adds octiles, the
	// paper's skycube variant).
	Depth int
	// Data is the leaf-sorted copy of the input. Data.IDs preserve the
	// original external ids.
	Data *data.Dataset
	// Cols is the column-major mirror of Data (Cols[j][i] == Data.Value(i, j)),
	// the SoA view dom.CompareBlock sweeps. No build reads it; it stays for
	// benchmark/probes.go's dom.compare_block_ns_per_row.
	Cols [][]float32
	// SrcRow[i] is the input row stored at sorted position i.
	SrcRow []int32
	// Med, Quart, Oct hold per-sorted-position path labels: bit j of Med[i]
	// is set iff point i is strictly below the global median on dimension
	// j; Quart is relative to the point's own half's quartile; Oct (depth-3
	// only) relative to its own quarter's octile.
	Med, Quart, Oct []mask.Mask
	// L2 are the quartile-level nodes (distinct (Med, Quart) labels);
	// L2Child[k] is the half-open range of Leaves under L2[k]. For depth 2,
	// Leaves == L2 ranges with zero Oct labels.
	L2      []Node
	L2Child [][2]int32
	Leaves  []Node
	// The label columns: entry i of LeafMed/LeafQuart/LeafOct is the label
	// triple all points of Leaves[i] share, entry i of L2Med/L2Quart the pair
	// of L2[i]. Each column is zero-padded to a multiple of 64 entries, so
	// the word holding its last entry is a full word of backing store; the
	// sweeper masks the lanes past len(Leaves) or len(L2).
	LeafMed, LeafQuart, LeafOct []mask.Mask
	L2Med, L2Quart              []mask.Mask

	// Pivots, retained so unseen points can be routed (tests, queries):
	// MedPivot[j]; QuartPivot[h][j] for half h; OctPivot[q][j] for quarter q.
	MedPivot   []float32
	QuartPivot [2][]float32
	OctPivot   [4][]float32
}

// Build constructs a depth-level tree over ds. depth must be 2 or 3.
func Build(ds *data.Dataset, depth int) *Tree {
	if depth != 2 && depth != 3 {
		panic(fmt.Sprintf("stree: depth %d not in {2,3}", depth))
	}
	d, n := ds.Dims, ds.N
	t := &Tree{Depth: depth}

	// Per-dimension order statistics: the seven octile ranks, selected
	// without sorting the column.
	t.MedPivot = make([]float32, d)
	t.QuartPivot[0] = make([]float32, d)
	t.QuartPivot[1] = make([]float32, d)
	for q := range t.OctPivot {
		t.OctPivot[q] = make([]float32, d)
	}
	col := make([]float32, n)
	octile := func(e int) int { return min(e*n/8, n-1) } // rank of the e-th octile
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			col[i] = ds.Value(i, j)
		}
		data.SelectRanks(col, octile(1), octile(2), octile(3), octile(4), octile(5), octile(6), octile(7))
		t.MedPivot[j] = col[octile(4)]
		t.QuartPivot[0][j] = col[octile(2)]
		t.QuartPivot[1][j] = col[octile(6)]
		t.OctPivot[0][j] = col[octile(1)]
		t.OctPivot[1][j] = col[octile(3)]
		t.OctPivot[2][j] = col[octile(5)]
		t.OctPivot[3][j] = col[octile(7)]
	}

	// Route every point: compute its three path labels.
	med := make([]mask.Mask, n)
	quart := make([]mask.Mask, n)
	oct := make([]mask.Mask, n)
	for i := 0; i < n; i++ {
		p := ds.Point(i)
		var m, q, o mask.Mask
		for j := 0; j < d; j++ {
			v := p[j]
			half := 1
			if v < t.MedPivot[j] {
				m |= 1 << uint(j)
				half = 0
			}
			quarter := half * 2
			if v < t.QuartPivot[half][j] {
				q |= 1 << uint(j)
			} else {
				quarter++
			}
			if depth == 3 && v < t.OctPivot[quarter][j] {
				o |= 1 << uint(j)
			}
		}
		med[i], quart[i], oct[i] = m, q, o
	}

	// Leaf-sort: order points by (med, quart, oct).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if med[ia] != med[ib] {
			return med[ia] < med[ib]
		}
		if quart[ia] != quart[ib] {
			return quart[ia] < quart[ib]
		}
		return oct[ia] < oct[ib]
	})

	rows := make([]int, n)
	for i, r := range order {
		rows[i] = int(r)
	}
	t.SrcRow = order
	t.Data = ds.Subset(rows)
	t.Med = make([]mask.Mask, n)
	t.Quart = make([]mask.Mask, n)
	t.Oct = make([]mask.Mask, n)
	for i, r := range order {
		t.Med[i] = med[r]
		t.Quart[i] = quart[r]
		t.Oct[i] = oct[r]
	}

	t.Cols = make([][]float32, d)
	colsBuf := make([]float32, n*d)
	for j := 0; j < d; j++ {
		cj := colsBuf[j*n : (j+1)*n]
		for i := 0; i < n; i++ {
			cj[i] = t.Data.Value(i, j)
		}
		t.Cols[j] = cj
	}

	t.buildNodes()
	return t
}

// buildNodes derives the node ranges and the label columns from the sorted
// label arrays.
func (t *Tree) buildNodes() {
	n := len(t.Med)
	for i := 0; i < n; {
		m := t.Med[i]
		for i < n && t.Med[i] == m {
			l2start, leaf0 := i, len(t.Leaves)
			q := t.Quart[i]
			for i < n && t.Med[i] == m && t.Quart[i] == q {
				leafStart := i
				o := t.Oct[i]
				for i < n && t.Med[i] == m && t.Quart[i] == q && t.Oct[i] == o {
					i++
				}
				t.Leaves = append(t.Leaves, Node{Start: int32(leafStart), End: int32(i), Label: o})
				t.LeafMed = append(t.LeafMed, m)
				t.LeafQuart = append(t.LeafQuart, q)
				t.LeafOct = append(t.LeafOct, o)
			}
			t.L2 = append(t.L2, Node{Start: int32(l2start), End: int32(i), Label: q})
			t.L2Child = append(t.L2Child, [2]int32{int32(leaf0), int32(len(t.Leaves))})
			t.L2Med = append(t.L2Med, m)
			t.L2Quart = append(t.L2Quart, q)
		}
	}
	for _, col := range []*[]mask.Mask{&t.LeafMed, &t.LeafQuart, &t.LeafOct, &t.L2Med, &t.L2Quart} {
		*col = append(*col, make([]mask.Mask, -len(*col)&63)...)
	}
}

// Route computes the path labels of an arbitrary point — one not
// necessarily part of the tree — relative to the retained global pivots,
// with exactly the label logic Build applies to its input rows. Routed
// labels are therefore directly comparable to stored ones via
// CompositeStrictLabels, which is what lets the incremental-maintenance
// path (internal/delta) run the MDMC filter for a freshly inserted point
// against a tree built long before the point existed.
func (t *Tree) Route(p []float32) (med, quart, oct mask.Mask) {
	for j := range t.MedPivot {
		v := p[j]
		half := 1
		if v < t.MedPivot[j] {
			med |= 1 << uint(j)
			half = 0
		}
		quarter := half * 2
		if v < t.QuartPivot[half][j] {
			quart |= 1 << uint(j)
		} else {
			quarter++
		}
		if t.Depth == 3 && v < t.OctPivot[quarter][j] {
			oct |= 1 << uint(j)
		}
	}
	return med, quart, oct
}

// CompositeStrictLabels returns the subspace in which *every* point with
// path labels (medQ, quartQ, octQ) is guaranteed, from the labels alone, to
// strictly dominate a point with labels (medP, quartP, octP) (paper §5.2 /
// §6.2 filter logic):
//
//   - median level: dims where q is below the median and p is not;
//   - quartile level: dims where the median labels agree (same quartile
//     pivot) and q is below it while p is not;
//   - octile level (depth 3): dims where both coarser labels agree and q is
//     below the octile while p is not.
//
// A zero result conveys nothing.
func CompositeStrictLabels(medQ, quartQ, octQ, medP, quartP, octP mask.Mask, depth int) mask.Mask {
	delta := medQ &^ medP
	sameHalf := ^(medQ ^ medP)
	delta |= (quartQ &^ quartP) & sameHalf
	if depth == 3 {
		sameQuarter := sameHalf & ^(quartQ ^ quartP)
		delta |= (octQ &^ octP) & sameQuarter
	}
	return delta
}
