package templates

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
	"skycube/internal/stree"
)

// Property: for arbitrary low-cardinality data, each point's solution
// bitmask B_{p∉S} produced by the MDMC kernel equals the brute-force
// dominance computation over every subspace — the end-to-end invariant of
// Algorithm 3.
func TestQuickSolutionBitmaskMatchesBruteForce(t *testing.T) {
	f := func(raw []byte, d8 uint8) bool {
		d := int(d8%3) + 2 // 2..4 dims
		n := len(raw) / d
		if n < 3 {
			return true
		}
		vals := make([]float32, n*d)
		for i := range vals {
			vals[i] = float32(raw[i] % 5)
		}
		ds := data.New(d, vals)
		res := MDMC(ds, MDMCOptions{Options: Options{Threads: 2}})

		// Brute force: for every subspace, which rows are dominated?
		for _, delta := range mask.Subspaces(d) {
			var want []int32
			for p := 0; p < n; p++ {
				dominated := false
				for q := 0; q < n && !dominated; q++ {
					if p == q {
						continue
					}
					if dom.RelDominates(dom.Compare(ds.Point(q), ds.Point(p)), delta) {
						dominated = true
					}
				}
				if !dominated {
					want = append(want, int32(p))
				}
			}
			if got := res.Cube.Skyline(delta); !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(v []reflect.Value, rng *rand.Rand) {
			raw := make([]byte, 20+rng.Intn(150))
			rng.Read(raw)
			v[0] = reflect.ValueOf(raw)
			v[1] = reflect.ValueOf(uint8(rng.Intn(256)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the filter phase alone never sets a bit that the full
// computation would not — it is a sound under-approximation (mask-only
// claims are always confirmed by DTs).
func TestQuickFilterIsSound(t *testing.T) {
	f := func(raw []byte) bool {
		const d = 4
		n := len(raw) / d
		if n < 4 {
			return true
		}
		vals := make([]float32, n*d)
		for i := range vals {
			vals[i] = float32(raw[i]) / 16
		}
		ds := data.New(d, vals)
		ctx := PrepareMDMC(ds, 1, 3, 0)
		sol := NewSolution(ctx)
		for p := 0; p < ctx.NumTasks(); p++ {
			sol.Reset()
			sol.Filter(p, 2)
			pp := ctx.Tree.Data.Point(p)
			for delta := 1; delta <= mask.NumSubspaces(d); delta++ {
				if !sol.NotInS().Test(delta - 1) {
					continue
				}
				// Claimed strictly dominated in δ: verify with brute force.
				strict := false
				for q := 0; q < ctx.Tree.Data.N && !strict; q++ {
					if q == p {
						continue
					}
					if dom.StrictlyDominatesIn(ctx.Tree.Data.Point(q), pp, mask.Mask(delta)) {
						strict = true
					}
				}
				if !strict {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 30,
		Values: func(v []reflect.Value, rng *rand.Rand) {
			raw := make([]byte, 24+rng.Intn(160))
			rng.Read(raw)
			v[0] = reflect.ValueOf(raw)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// scalarFilter and scalarRefine are the entry-by-entry walks the word sweeps
// replaced, kept as their oracle: one node at a time, stree's label
// definition on the labels of each node's first point, one bit test per
// entry. They read none of the tree's label columns and nothing of dom's
// label kernel.
func scalarFilter(k *Solution, medP, quartP, octP mask.Mask, levels int, leafAlive func(li int) bool) {
	t := k.ctx.Tree
	full := mask.Full(k.ctx.D)
	for i2, n2 := range t.L2 {
		lc := t.L2Child[i2]
		if levels >= 3 && t.Depth == 3 {
			for li := lc[0]; li < lc[1]; li++ {
				if leafAlive != nil && !leafAlive(int(li)) {
					continue
				}
				s := t.Leaves[li].Start
				k.SetStrict(stree.CompositeStrictLabels(t.Med[s], t.Quart[s], t.Oct[s], medP, quartP, octP, 3) & full)
			}
			continue
		}
		if leafAlive != nil {
			alive := false
			for li := lc[0]; li < lc[1] && !alive; li++ {
				alive = leafAlive(int(li))
			}
			if !alive {
				continue
			}
		}
		s := n2.Start
		k.SetStrict(stree.CompositeStrictLabels(t.Med[s], t.Quart[s], 0, medP, quartP, 0, 2) & full)
	}
}

func scalarRefine(k *Solution, pp []float32, self int, medP, quartP, octP mask.Mask, memo bool,
	alive func(q int) bool, onLeaf func(skipped bool), onDT func()) {
	t := k.ctx.Tree
	full := mask.Full(k.ctx.D)
	for _, lf := range t.Leaves {
		if k.remaining == 0 {
			return
		}
		s := int(lf.Start)
		optimistic := full &^ stree.CompositeStrictLabels(medP, quartP, octP, t.Med[s], t.Quart[s], t.Oct[s], t.Depth)
		skip := optimistic == 0 || (memo && k.notInSPlus.Test(int(optimistic)-1))
		onLeaf(skip)
		if skip {
			continue
		}
		for q := s; q < int(lf.End); q++ {
			if q == self || (alive != nil && !alive(q)) {
				continue
			}
			onDT()
			k.ApplyDT(t.Data.Point(q), pp, full, memo)
			if k.remaining == 0 {
				return
			}
		}
	}
}

// walkLog is what a refine walk did, in order: a leaf entered, a leaf
// skipped, a dominance test.
type walkLog []byte

func (l *walkLog) onLeaf(skipped bool) {
	if skipped {
		*l = append(*l, 's')
	} else {
		*l = append(*l, 'L')
	}
}
func (l *walkLog) onDT() { *l = append(*l, 'd') }

// The word walks against the entry-by-entry oracle, bit for bit and DT for
// DT: over low-cardinality inputs (ties, duplicates, leaves of many points,
// trees of one word and of many), both tree depths, two and three filter
// levels, memoisation on and off, a level bound, random dead sets and points
// from outside the tree, every task must leave both solution bitsets and
// remaining alike after the filter and after the refine, the refine must
// report the same leaves entered and skipped and the same DTs in the same
// order, and remaining must be the relevant subspaces still clear in B_{p∉S}.
func TestWalksMatchEntryByEntryOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 28; trial++ {
		d := 2 + trial%7
		n := []int{40, 300, 1500}[trial%3]
		depth := 3 - trial/7%2
		vals := make([]float32, n*d)
		for i := range vals {
			vals[i] = float32(rng.Intn(4 + trial%9))
		}
		ctx := PrepareMDMC(data.New(d, vals), 1, depth, []int{0, 2}[trial%2])
		tr := ctx.Tree
		word, ref := NewSolution(ctx), NewSolution(ctx)
		same := func(what string, args ...any) {
			t.Helper()
			if !reflect.DeepEqual(word.notInS, ref.notInS) || !reflect.DeepEqual(word.notInSPlus, ref.notInSPlus) || word.remaining != ref.remaining {
				t.Fatalf("trial %d (n=%d d=%d depth=%d): word walk and oracle disagree after %s", trial, n, d, depth, fmt.Sprintf(what, args...))
			}
			open := word.relevant.Clone()
			open.AndNot(word.notInS)
			if word.remaining != open.Count() {
				t.Fatalf("trial %d (n=%d d=%d, levels ≤ %d) after %s: remaining = %d with %d relevant subspaces clear",
					trial, n, d, ctx.MaxLevel, fmt.Sprintf(what, args...), word.remaining, open.Count())
			}
		}
		// A third of the tree's points dead, in runs so that whole leaves die.
		dead := make([]bool, tr.Data.N)
		for q := range dead {
			dead[q] = (q/3+trial)%3 == 0
		}
		alive := func(q int) bool { return !dead[q] }
		leafAlive := func(li int) bool {
			for q := tr.Leaves[li].Start; q < tr.Leaves[li].End; q++ {
				if !dead[q] {
					return true
				}
			}
			return false
		}
		for _, levels := range []int{2, 3} {
			for _, memo := range []bool{true, false} {
				for p := 0; p < ctx.NumTasks(); p += 1 + ctx.NumTasks()/150 {
					var got, want walkLog
					word.Reset()
					ref.Reset()
					if p%5 != 0 { // every fifth task refines from an empty set
						word.Filter(p, levels)
						scalarFilter(ref, tr.Med[p], tr.Quart[p], tr.Oct[p], levels, nil)
						same("Filter(%d, %d)", p, levels)
					}
					word.RefineInstrumented(p, memo, got.onLeaf, got.onDT)
					scalarRefine(ref, tr.Data.Point(p), p, tr.Med[p], tr.Quart[p], tr.Oct[p], memo, nil, want.onLeaf, want.onDT)
					same("RefineInstrumented(%d, %v)", p, memo)
					if !bytes.Equal(got, want) {
						t.Fatalf("trial %d (n=%d d=%d depth=%d) task %d memo %v: walk %q, oracle %q", trial, n, d, depth, p, memo, got, want)
					}
					// The uninstrumented walk visits live lanes only; it must
					// end where the instrumented one did.
					ref.Reset()
					if p%5 != 0 {
						ref.Filter(p, levels)
					}
					ref.Refine(p, memo)
					same("Refine(%d, %v)", p, memo)
				}
				for x := 0; x < 30; x++ {
					pp := make([]float32, d)
					for j := range pp {
						pp[j] = float32(rng.Intn(5 + trial%9))
					}
					med, quart, oct := tr.Route(pp)
					var got, want walkLog
					word.Reset()
					ref.Reset()
					if x%2 == 0 { // plain external point …
						word.FilterExternal(med, quart, oct, levels, nil)
						scalarFilter(ref, med, quart, oct, levels, nil)
						same("FilterExternal(%v, %d)", pp, levels)
						word.RefineExternal(pp, med, quart, oct, memo, nil)
						scalarRefine(ref, pp, -1, med, quart, oct, memo, nil, want.onLeaf, want.onDT)
						same("RefineExternal(%v, %v)", pp, memo)
						continue
					}
					// … and one with deletions pending, callbacks on.
					word.FilterExternal(med, quart, oct, levels, leafAlive)
					scalarFilter(ref, med, quart, oct, levels, leafAlive)
					same("FilterExternal(%v, %d, leafAlive)", pp, levels)
					word.refine(pp, -1, med, quart, oct, memo, alive, got.onLeaf, got.onDT)
					scalarRefine(ref, pp, -1, med, quart, oct, memo, alive, want.onLeaf, want.onDT)
					same("refine(%v, %v, alive)", pp, memo)
					if !bytes.Equal(got, want) {
						t.Fatalf("trial %d (n=%d d=%d depth=%d) external %v memo %v: walk %q, oracle %q", trial, n, d, depth, pp, memo, got, want)
					}
					ref.Reset()
					ref.FilterExternal(med, quart, oct, levels, leafAlive)
					ref.RefineExternal(pp, med, quart, oct, memo, alive)
					same("RefineExternal(%v, %v, alive)", pp, memo)
				}
			}
		}
	}
}

// The one subtle step of the refine walk's exactness: a leaf that is live
// when its word is swept, but whose optimistic mask a DT earlier in the same
// word then covers, must be skipped at its turn — reported skipped, no DT —
// as a leaf-by-leaf walk skips it. Every dimension holds the values 0…7 once,
// so the pivots are 4, 2/6 and 1/3/5/7 and the labels can be read off: seen
// from p = (7,7,0), b = (0,0,7) may be ≤ p on dimensions 0 and 1 only
// (optimistic mask 011), every point is < p on exactly those two, and all
// eight leaves share word 0.
func TestRefineRetestsALaneAtItsTurn(t *testing.T) {
	rows := [][]float32{{7, 7, 0}, {3, 3, 6}, {0, 0, 7}, {1, 2, 1}, {2, 1, 2}, {4, 5, 3}, {5, 4, 4}, {6, 6, 5}}
	// The tree over all eight rows, not over their extended skyline.
	tr := stree.Build(data.FromRows(rows), 3)
	ctx := &MDMCContext{Tree: tr, OrigRow: tr.SrcRow, D: 3, MaxLevel: 3}
	if len(tr.Leaves) != len(rows) {
		t.Fatalf("%d leaves, want 8 single-point leaves", len(tr.Leaves))
	}
	pos := func(row int32) int { return slices.Index(tr.SrcRow, row) }
	p, b := pos(0), pos(2)
	if b == 0 || (b == 1 && p == 0) {
		t.Fatalf("b is at leaf %d, p at %d: no other leaf is tested before b", b, p)
	}
	sel := dom.RefineSel(tr.Med[p], tr.Quart[p], tr.Oct[p], mask.Full(3))
	if x := dom.LabelMask(tr.LeafMed[b], tr.LeafQuart[b], tr.LeafOct[b], &sel); x != 0b011 {
		t.Fatalf("b's optimistic mask is %03b, want 011", x)
	}
	var xs [64]mask.Mask
	if live := dom.LabelWord(tr.LeafMed, tr.LeafQuart, tr.LeafOct, 0, &sel, make([]uint64, 1), &xs); live>>uint(b)&1 == 0 {
		t.Fatalf("b's lane is not live at the word's start (%08b)", live)
	}

	sol := NewSolution(ctx)
	sol.Reset()
	var leaves []bool
	dtsAt := make([]int, len(rows)) // DTs made while each leaf was the current one
	sol.RefineInstrumented(p, true,
		func(skipped bool) { leaves = append(leaves, skipped) },
		func() { dtsAt[len(leaves)-1]++ })
	if len(leaves) != len(rows) {
		t.Fatalf("the walk reported %d leaves of %d (remaining %d)", len(leaves), len(rows), sol.Remaining())
	}
	before := 0
	for _, n := range dtsAt[:b] {
		before += n
	}
	if before == 0 {
		t.Fatal("no DT was made before b's turn")
	}
	if !leaves[b] || dtsAt[b] != 0 {
		t.Fatalf("b: skipped = %v with %d DTs, want it skipped untested — a DT before it covered 011", leaves[b], dtsAt[b])
	}

	var got, want walkLog
	ref := NewSolution(ctx)
	ref.Reset()
	sol.Reset()
	sol.RefineInstrumented(p, true, got.onLeaf, got.onDT)
	scalarRefine(ref, tr.Data.Point(p), p, tr.Med[p], tr.Quart[p], tr.Oct[p], true, nil, want.onLeaf, want.onDT)
	if !bytes.Equal(got, want) {
		t.Fatalf("walk %q, oracle %q", got, want)
	}
}

// What the filter leaves must be, bit for bit, the union over all leaves of
// the downset of the leaf's composite label mask against p — the set a walk
// that calls SetStrict for every node builds, though the sweep calls it only
// for the lanes that still had something to add.
func TestFilterSkipLosesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		d := 3 + trial%6
		vals := make([]float32, 600*d)
		for i := range vals {
			vals[i] = float32(rng.Intn(50))
		}
		ctx := PrepareMDMC(data.New(d, vals), 1, 3, 0)
		tr := ctx.Tree
		sol := NewSolution(ctx)
		want := bitset.New(mask.NumSubspaces(d))
		for _, levels := range []int{2, 3} {
			for p := 0; p < ctx.NumTasks(); p++ {
				sol.Reset()
				sol.Filter(p, levels)
				want.Reset()
				for _, lf := range tr.Leaves {
					s := int(lf.Start)
					m := stree.CompositeStrictLabels(tr.Med[s], tr.Quart[s], tr.Oct[s], tr.Med[p], tr.Quart[p], tr.Oct[p], levels)
					for sub := m; sub != 0; sub = (sub - 1) & m {
						want.Set(int(sub) - 1)
					}
				}
				if !reflect.DeepEqual(sol.notInSPlus, want) || !reflect.DeepEqual(sol.notInS, want) {
					t.Fatalf("trial %d (d=%d) point %d, %d levels: filter left %x / %x, want %x",
						trial, d, p, levels, sol.notInSPlus.Words64(), sol.notInS.Words64(), want.Words64())
				}
				if got := mask.NumSubspaces(d) - want.Count(); sol.remaining != got {
					t.Fatalf("trial %d (d=%d) point %d: remaining %d, want %d", trial, d, p, sol.remaining, got)
				}
			}
		}
	}
}
