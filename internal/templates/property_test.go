package templates

import (
	"math/rand"
	"reflect"
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

// The refine hook has a block loop (CompareBlock over leaf chunks) and a
// scalar loop that callers needing per-DT accounting or a liveness hook get.
// Called directly on the same task — ties and duplicates, leaves shorter and
// longer than one 64-lane chunk, memo on and off — both must leave the two
// solution bitsets bit for bit alike, for tree points and external ones —
// and, with and without a level bound, leave remaining the number of
// relevant subspaces still clear in B_{p∉S}.
func TestRefineBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 12; trial++ {
		d := 3 + trial%5
		n := []int{40, 200, 900}[trial%3]
		vals := make([]float32, n*d)
		for i := range vals {
			vals[i] = float32(rng.Intn(7))
		}
		ctx := PrepareMDMC(data.New(d, vals), 1, 3, []int{0, 2}[trial%2])
		blk, sc := NewSolution(ctx), NewSolution(ctx)
		same := func(what string, p int) {
			t.Helper()
			if !reflect.DeepEqual(blk.notInS, sc.notInS) || !reflect.DeepEqual(blk.notInSPlus, sc.notInSPlus) || blk.remaining != sc.remaining {
				t.Fatalf("trial %d (n=%d d=%d) %s %d: block and scalar refine disagree", trial, n, d, what, p)
			}
			open := blk.relevant.Clone()
			open.AndNot(blk.notInS)
			if blk.remaining != open.Count() {
				t.Fatalf("trial %d (n=%d d=%d, levels ≤ %d) %s %d: remaining = %d with %d relevant subspaces clear",
					trial, n, d, ctx.MaxLevel, what, p, blk.remaining, open.Count())
			}
		}
		for _, memo := range []bool{true, false} {
			for p := 0; p < ctx.NumTasks(); p++ {
				blk.Reset()
				sc.Reset()
				blk.Refine(p, memo)
				sc.RefineInstrumented(p, memo, nil, func() {})
				same("task", p)
			}
			for x := 0; x < 20; x++ {
				pp := make([]float32, d)
				for j := range pp {
					pp[j] = float32(rng.Intn(7))
				}
				med, quart, oct := ctx.Tree.Route(pp)
				blk.Reset()
				sc.Reset()
				blk.RefineExternal(pp, med, quart, oct, memo, nil)
				sc.RefineExternal(pp, med, quart, oct, memo, func(int) bool { return true })
				same("external point", x)
			}
		}
	}
}

// The filter walk passes over an L1 node once B_{p∉S⁺} holds the most the
// node's subtree could prove. What it leaves must still be, bit for bit, the
// union over all leaves of the downset of the leaf's composite label mask
// against p — the set a walk that visits every node builds.
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
		read := 0
		countL2 := func(level, _ int, _ mask.Mask) { read += level - 1 }
		for _, levels := range []int{2, 3} {
			for p := 0; p < ctx.NumTasks(); p++ {
				sol.Reset()
				sol.FilterInstrumented(p, levels, countL2)
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
		if all := 2 * ctx.NumTasks() * len(tr.L2); read >= all {
			t.Fatalf("trial %d (d=%d): the walks read %d L2 nodes of %d, none was passed over", trial, d, read, all)
		} else {
			t.Logf("d=%d: %d of %d L2 nodes read", d, read, all)
		}
	}
}
