package stree

import (
	"math/rand"
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

func buildRandom(t *testing.T, n, d, depth int, seed int64) *Tree {
	t.Helper()
	ds := gen.Synthetic(gen.Independent, n, d, seed)
	return Build(ds, depth)
}

// Route must reproduce, for every point the tree was built over, exactly
// the labels Build stored at that point's sorted position — routing is a
// pure function of the coordinates and the retained pivots.
func TestRouteMatchesStoredLabels(t *testing.T) {
	for _, depth := range []int{2, 3} {
		tr := buildRandom(t, 800, 5, depth, 7)
		for pos := 0; pos < tr.Data.N; pos++ {
			med, quart, oct := tr.Route(tr.Data.Point(pos))
			if med != tr.Med[pos] || quart != tr.Quart[pos] || oct != tr.Oct[pos] {
				t.Fatalf("depth %d pos %d: Route = (%b,%b,%b), stored (%b,%b,%b)",
					depth, pos, med, quart, oct, tr.Med[pos], tr.Quart[pos], tr.Oct[pos])
			}
		}
	}
}

// Routed labels of an unseen point must yield sound CompositeStrictLabels
// claims: whenever the labels guarantee a stored point strictly dominates
// the routed one on a subspace, the coordinates must agree.
func TestRouteCompositeSound(t *testing.T) {
	tr := buildRandom(t, 400, 4, 3, 9)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p := make([]float32, 4)
		for j := range p {
			p[j] = rng.Float32()
		}
		med, quart, oct := tr.Route(p)
		for pos := 0; pos < tr.Data.N; pos++ {
			claim := CompositeStrictLabels(tr.Med[pos], tr.Quart[pos], tr.Oct[pos],
				med, quart, oct, tr.Depth)
			q := tr.Data.Point(pos)
			for j := 0; j < 4; j++ {
				if claim&(1<<uint(j)) != 0 && q[j] >= p[j] {
					t.Fatalf("trial %d pos %d dim %d: label claim %b but q=%v p=%v",
						trial, pos, j, claim, q[j], p[j])
				}
			}
		}
	}
}

func TestBuildPanicsOnBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for depth 1")
		}
	}()
	Build(data.New(2, []float32{1, 2}), 1)
}

func TestLeavesPartitionInput(t *testing.T) {
	for _, depth := range []int{2, 3} {
		tr := buildRandom(t, 500, 6, depth, 1)
		pos := int32(0)
		for _, lf := range tr.Leaves {
			if lf.Start != pos {
				t.Fatalf("depth %d: leaf starts at %d, want %d", depth, lf.Start, pos)
			}
			if lf.End <= lf.Start {
				t.Fatalf("depth %d: empty leaf", depth)
			}
			pos = lf.End
		}
		if int(pos) != tr.Data.N {
			t.Fatalf("depth %d: leaves cover %d of %d points", depth, pos, tr.Data.N)
		}
	}
}

func TestNodeHierarchy(t *testing.T) {
	for _, depth := range []int{2, 3} {
		tr := buildRandom(t, 800, 5, depth, 2)
		// L2 nodes tile the points, their children ranges tile Leaves.
		var pos, leafSeen int32
		for i, n2 := range tr.L2 {
			if n2.Start != pos {
				t.Fatalf("depth %d: L2[%d] starts at %d, want %d", depth, i, n2.Start, pos)
			}
			pos = n2.End
			c := tr.L2Child[i]
			if c[0] != leafSeen || c[1] <= c[0] {
				t.Fatalf("depth %d: L2[%d] leaf children [%d,%d), want a non-empty range from %d", depth, i, c[0], c[1], leafSeen)
			}
			for k := c[0]; k < c[1]; k++ {
				lf := tr.Leaves[k]
				if lf.Start < n2.Start || lf.End > n2.End {
					t.Fatalf("depth %d: leaf %d outside its L2 node", depth, k)
				}
			}
			leafSeen = c[1]
		}
		if int(pos) != tr.Data.N || int(leafSeen) != len(tr.Leaves) {
			t.Fatalf("depth %d: L2 nodes cover %d of %d points, their children %d of %d leaves",
				depth, pos, tr.Data.N, leafSeen, len(tr.Leaves))
		}
	}
}

// The flat label columns repeat, per node, the labels its points share, and
// are zero-padded to whole 64-entry words.
func TestLabelColumns(t *testing.T) {
	for _, tc := range []struct{ n, d, depth int }{{500, 6, 3}, {500, 6, 2}, {64, 2, 3}, {3000, 3, 3}, {1, 4, 3}} {
		tr := buildRandom(t, tc.n, tc.d, tc.depth, 21)
		padded := func(name string, col []mask.Mask, n int) {
			t.Helper()
			if len(col) != (n+63)&^63 {
				t.Fatalf("%+v: %s has %d entries for %d nodes, want them padded to a multiple of 64", tc, name, len(col), n)
			}
			for i := n; i < len(col); i++ {
				if col[i] != 0 {
					t.Fatalf("%+v: %s[%d] = %b in the padding", tc, name, i, col[i])
				}
			}
		}
		padded("LeafMed", tr.LeafMed, len(tr.Leaves))
		padded("LeafQuart", tr.LeafQuart, len(tr.Leaves))
		padded("LeafOct", tr.LeafOct, len(tr.Leaves))
		padded("L2Med", tr.L2Med, len(tr.L2))
		padded("L2Quart", tr.L2Quart, len(tr.L2))
		for i, lf := range tr.Leaves {
			s := lf.Start
			if tr.LeafMed[i] != tr.Med[s] || tr.LeafQuart[i] != tr.Quart[s] || tr.LeafOct[i] != tr.Oct[s] || lf.Label != tr.Oct[s] {
				t.Fatalf("%+v: leaf %d columns (%b,%b,%b) differ from its points' labels", tc, i, tr.LeafMed[i], tr.LeafQuart[i], tr.LeafOct[i])
			}
		}
		for i, n2 := range tr.L2 {
			s := n2.Start
			if tr.L2Med[i] != tr.Med[s] || tr.L2Quart[i] != tr.Quart[s] || n2.Label != tr.Quart[s] {
				t.Fatalf("%+v: L2 node %d columns (%b,%b) differ from its points' labels", tc, i, tr.L2Med[i], tr.L2Quart[i])
			}
		}
	}
}

func TestLabelsMatchPivots(t *testing.T) {
	tr := buildRandom(t, 1000, 7, 3, 3)
	d := tr.Data.Dims
	for i := 0; i < tr.Data.N; i++ {
		p := tr.Data.Point(i)
		for j := 0; j < d; j++ {
			below := p[j] < tr.MedPivot[j]
			if below != (tr.Med[i]&mask.Bit(j) != 0) {
				t.Fatalf("point %d dim %d: median label wrong", i, j)
			}
			half := 1
			if below {
				half = 0
			}
			qBelow := p[j] < tr.QuartPivot[half][j]
			if qBelow != (tr.Quart[i]&mask.Bit(j) != 0) {
				t.Fatalf("point %d dim %d: quartile label wrong", i, j)
			}
			quarter := half * 2
			if !qBelow {
				quarter++
			}
			oBelow := p[j] < tr.OctPivot[quarter][j]
			if oBelow != (tr.Oct[i]&mask.Bit(j) != 0) {
				t.Fatalf("point %d dim %d: octile label wrong", i, j)
			}
		}
	}
}

func TestLeafGroupsShareLabels(t *testing.T) {
	tr := buildRandom(t, 600, 4, 3, 4)
	for _, lf := range tr.Leaves {
		m, q, o := tr.Med[lf.Start], tr.Quart[lf.Start], tr.Oct[lf.Start]
		if lf.Label != o {
			t.Fatalf("leaf label %b != first point oct %b", lf.Label, o)
		}
		for i := lf.Start; i < lf.End; i++ {
			if tr.Med[i] != m || tr.Quart[i] != q || tr.Oct[i] != o {
				t.Fatal("leaf contains mixed labels")
			}
		}
	}
}

// composite is CompositeStrictLabels of the points at sorted positions q and
// p of tr, at tr's depth.
func composite(tr *Tree, q, p int) mask.Mask {
	return CompositeStrictLabels(tr.Med[q], tr.Quart[q], tr.Oct[q], tr.Med[p], tr.Quart[p], tr.Oct[p], tr.Depth)
}

// The core soundness property: whenever CompositeStrictLabels claims q
// strictly dominates p in a subspace, an exact dominance test must confirm it.
func TestCompositeStrictSound(t *testing.T) {
	for _, depth := range []int{2, 3} {
		tr := buildRandom(t, 400, 6, depth, 5)
		rng := rand.New(rand.NewSource(9))
		for it := 0; it < 20000; it++ {
			q, p := rng.Intn(tr.Data.N), rng.Intn(tr.Data.N)
			delta := composite(tr, q, p)
			if delta == 0 {
				continue
			}
			if !dom.StrictlyDominatesIn(tr.Data.Point(q), tr.Data.Point(p), delta) {
				t.Fatalf("depth %d: composite mask %b wrong for q=%d p=%d", depth, delta, q, p)
			}
		}
	}
}

func TestCompositeStrictSelfIsZero(t *testing.T) {
	tr := buildRandom(t, 300, 5, 3, 6)
	for i := 0; i < tr.Data.N; i++ {
		if got := composite(tr, i, i); got != 0 {
			t.Fatalf("CompositeStrictLabels of %d against itself = %b, want 0", i, got)
		}
	}
}

func TestDepth3PrunesAtLeastAsMuchAsDepth2(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 500, 6, 7)
	t2 := Build(ds, 2)
	t3 := Build(ds, 3)
	// Compare by original row so the two sorts align.
	pos2 := make([]int, ds.N)
	pos3 := make([]int, ds.N)
	for i, r := range t2.SrcRow {
		pos2[r] = i
	}
	for i, r := range t3.SrcRow {
		pos3[r] = i
	}
	weaker := 0
	for a := 0; a < 200; a++ {
		for b := 0; b < 200; b++ {
			m2 := composite(t2, pos2[a], pos2[b])
			m3 := composite(t3, pos3[a], pos3[b])
			if m3&m2 != m2 {
				weaker++
			}
		}
	}
	if weaker != 0 {
		t.Errorf("depth-3 mask lost information vs depth-2 for %d pairs", weaker)
	}
}

func TestDuplicatePointsShareLeaf(t *testing.T) {
	// Duplicates must land in the same leaf and produce zero composite
	// masks against each other.
	rows := [][]float32{{0.5, 0.5}, {0.5, 0.5}, {0.1, 0.9}, {0.9, 0.1}}
	tr := Build(data.FromRows(rows), 3)
	var posA, posB int
	for i, r := range tr.SrcRow {
		if r == 0 {
			posA = i
		}
		if r == 1 {
			posB = i
		}
	}
	if composite(tr, posA, posB) != 0 || composite(tr, posB, posA) != 0 {
		t.Error("duplicate points produced non-zero composite mask")
	}
}

func TestSrcRowIsPermutation(t *testing.T) {
	tr := buildRandom(t, 777, 5, 3, 13)
	seen := make([]bool, tr.Data.N)
	for _, r := range tr.SrcRow {
		if seen[r] {
			t.Fatalf("row %d appears twice", r)
		}
		seen[r] = true
	}
}
