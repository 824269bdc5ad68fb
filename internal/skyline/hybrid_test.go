package skyline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// scalarOracle is Compute by AlgoBNL: the row-compare window alone, in input
// order — no block kernel, no sum order, no labels, none of what the Hybrid
// engine is made of.
func scalarOracle(ds *data.Dataset, rows []int32, delta mask.Mask) Result {
	return Compute(ds, rows, delta, AlgoBNL, 1)
}

// poisonStage leaves a pooled stage shaped for n points of width k whose
// buffers all hold -1, so that a prologue pass that misses a position hands
// the engine a point below every other, or an index out of range, instead of
// what an earlier run on the same input left there.
func poisonStage(n, k int) {
	s := stagePool.Get().(*hybridStage)
	s.pts, s.sum, s.rowSum, s.cols = resize(s.pts, n*k), resize(s.sum, n), resize(s.rowSum, n), resize(s.cols, k*n)
	s.medM, s.quartM = resize(s.medM, n), resize(s.quartM, n)
	s.ord, s.pos, s.kept = resize(s.ord, n), resize(s.pos, n), resize(s.kept, n)
	for _, f := range [][]float32{s.pts, s.sum, s.rowSum, s.cols} {
		for i := range f {
			f[i] = -1
		}
	}
	for _, m := range [][]mask.Mask{s.medM, s.quartM} {
		for i := range m {
			m[i] = ^mask.Mask(0)
		}
	}
	for _, ix := range [][]int32{s.ord, s.pos, s.kept} {
		for i := range ix {
			ix[i] = -1
		}
	}
	stagePool.Put(s)
}

// checkHybrid compares the engine with the oracle on one cuboid at one, two
// and three threads, each on a poisoned stage: both sets, empty meaning empty
// and not nil. Every run must sweep the same words: the pre-filter's
// representatives, the pivots and the group order do not depend on the
// thread count.
func checkHybrid(t *testing.T, name string, ds *data.Dataset, rows []int32, delta mask.Mask) {
	t.Helper()
	want := scalarOracle(ds, rows, delta)
	var sweeps [3]uint64
	for i, threads := range []int{1, 2, 3} {
		poisonStage(len(rows), mask.Count(delta))
		before := dom.KernelStats().BlockSweeps
		if got := Compute(ds, rows, delta, AlgoHybrid, threads); !reflect.DeepEqual(got, want) {
			t.Errorf("%s δ=%b n=%d threads=%d:\n got S=%v S⁺\\S=%v\nwant S=%v S⁺\\S=%v",
				name, delta, len(rows), threads, got.Skyline, got.ExtOnly, want.Skyline, want.ExtOnly)
		}
		sweeps[i] = dom.KernelStats().BlockSweeps - before
	}
	if sweeps[1] != sweeps[0] || sweeps[2] != sweeps[0] {
		t.Errorf("%s δ=%b n=%d: %v words swept on one, two and three threads, want one count", name, delta, len(rows), sweeps)
	}
}

func TestLabelDepth(t *testing.T) {
	for _, c := range []struct{ lanes, width, want int }{
		{0, 1, 0}, {127, 1, 0}, {128, 1, 1}, {255, 1, 1}, {256, 1, 2},
		{1023, 4, 0}, {1024, 4, 1}, {16383, 4, 1}, {16384, 4, 2}, {200_000, 4, 2},
		{5000, 8, 0}, {16384, 8, 1}, {1 << 22, 8, 2},
		{1 << 30, 32, 0}, // 2^(depth·width) past the word size is no depth at all
	} {
		if got := LabelDepth(c.lanes, c.width); got != c.want {
			t.Errorf("LabelDepth(%d, %d) = %d, want %d", c.lanes, c.width, got, c.want)
		}
	}
}

// TestHybridMatchesScalarOracle is the engine's property test: on four-level
// grids (long equal-sum runs, ties on every dimension), with exact duplicates
// and shuffled rows, at sizes on both sides of a kernel word, a tile and the
// old single-thread fall-back, in subspaces narrow enough to reach every
// label depth.
func TestHybridMatchesScalarOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	depths := map[int]bool{}
	for d := 2; d <= 6; d++ {
		for _, n := range []int{1, 63, 64, 65, 511, 512, 513, 2047, 2048, 2049} {
			pts := make([][]float32, n)
			for i := range pts {
				pts[i] = make([]float32, d)
				for j := range pts[i] {
					pts[i][j] = float32(rng.Intn(4))
				}
			}
			for i := 0; i < n/8; i++ {
				pts[rng.Intn(n)] = pts[rng.Intn(n)] // exact duplicates
			}
			ds := data.FromRows(pts)
			rows := allRows(n)
			rng.Shuffle(n, func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
			for _, delta := range []mask.Mask{mask.Full(d), 0b1, 0b11, mask.Mask(1 + rng.Intn(1<<uint(d)-1))} {
				depths[LabelDepth(n, mask.Count(delta))] = true
				checkHybrid(t, fmt.Sprintf("grid d=%d", d), ds, rows, delta)
			}
		}
	}
	if len(depths) != 3 {
		t.Errorf("label depths exercised: %v, want all of 0, 1, 2", depths)
	}
}

// TestHybridMatchesOracleOnContinuousData covers what grids do not: sums that
// hardly ever tie, so the sum order alone puts dominators first, over several
// tiles and a row subset.
func TestHybridMatchesOracleOnContinuousData(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.Anticorrelated} {
		ds := gen.Synthetic(dist, 3000, 5, 11)
		for _, delta := range []mask.Mask{mask.Full(5), 0b00110, 0b10000} {
			checkHybrid(t, dist.String(), ds, allRows(ds.N), delta)
		}
		half := allRows(ds.N)[ds.N/2:]
		checkHybrid(t, dist.String()+" subset", ds, half, 0b01011)
	}
}

// TestHybridParallelPrologue runs the engine on cuboids large enough for the
// prologue to fork on two and on three threads: grid values in {0..7}, so
// every δ-sum is shared by thousands of points and equal-sum runs cross tile
// edges, every cell holds exact duplicates, and rows are either all of them
// or an ascending subset, as a child cuboid gets. Coordinates below 2 are
// rare and a few points sit at (1, …, 1), which keeps S⁺ — and with it the
// scalar oracle's window — to the points with a low coordinate, among which
// S and S⁺ \ S are mixed. Not
// skipped under -short: it is the race detector's view of the forked passes.
func TestHybridParallelPrologue(t *testing.T) {
	const n = 140_000
	rng := rand.New(rand.NewSource(28))
	for _, d := range []int{3, 4} {
		vals := make([]float32, n*d)
		for i := range vals {
			switch r := rng.Intn(4000); {
			case r < 3:
				vals[i] = 0
			case r < 8:
				vals[i] = 1
			default:
				vals[i] = float32(2 + rng.Intn(6))
			}
		}
		// Copies of (1, …, 1) strictly dominate every point without a
		// coordinate below 2; one early row keeps the oracle's window short.
		for _, r := range []int{5, n / 2, n - 2} {
			for j := 0; j < d; j++ {
				vals[r*d+j] = 1
			}
		}
		ds := data.New(d, vals)
		subset := make([]int32, 0, n)
		for i := int32(0); i < n; i++ {
			if i%7 != 3 {
				subset = append(subset, i)
			}
		}
		for _, c := range []struct {
			name  string
			rows  []int32
			delta mask.Mask
		}{
			{"all rows", allRows(n), mask.Full(d)},
			{"subset", subset, mask.Full(d)},
			{"subset, subspace", subset, 0b1011 & mask.Full(d)},
		} {
			if w := PrologueWorkers(len(c.rows), 3); w != 3 {
				t.Fatalf("%s: %d rows fork the prologue %d ways on three threads, want 3", c.name, len(c.rows), w)
			}
			if LabelDepth(len(c.rows), mask.Count(c.delta)) != 2 {
				t.Fatalf("%s: label depth %d, want 2", c.name, LabelDepth(len(c.rows), mask.Count(c.delta)))
			}
			checkHybrid(t, fmt.Sprintf("grid d=%d %s", d, c.name), ds, c.rows, c.delta)
		}
	}
}

// Three float32 values around 2^27, where the spacing doubles from 8 to 16:
// 5 + tieLo and 6 + tieHi both round to tieHi, so a point can be smaller on
// every dimension than another of the same float32 δ-sum — the one case in
// which the sum order puts a dominator after its victim.
const (
	tieLo = 1<<27 - 8
	tieHi = 1 << 27
)

func TestHybridEqualSumCollisions(t *testing.T) {
	for _, c := range []struct {
		name    string
		pts     [][]float32
		sky     []int32
		extOnly []int32
	}{
		{
			// The victim comes first by row, is a member, and is evicted to
			// S⁺\S by the equal-sum arrival that ties with it on one dimension.
			name:    "arrival dominates an equal-sum member",
			pts:     [][]float32{{6, tieHi}, {5.5, tieHi}},
			sky:     []int32{1},
			extOnly: []int32{0},
		},
		{
			name:    "arrival strictly dominates an equal-sum member",
			pts:     [][]float32{{6, tieHi}, {5, tieLo}},
			sky:     []int32{1},
			extOnly: []int32{},
		},
		{
			// Row 1 is in S⁺\S because row 0 ties with it on the first
			// dimension; row 2 has row 1's δ-sum and beats it everywhere.
			name:    "arrival strictly dominates an equal-sum point of S⁺\\S",
			pts:     [][]float32{{6, 1}, {6, tieHi}, {5, tieLo}},
			sky:     []int32{0, 2},
			extOnly: []int32{},
		},
		{
			// Row 0 is evicted to S⁺\S by row 1, then dropped by row 2, which
			// also strictly dominates row 1: all three share one δ-sum.
			name:    "an evicted member is dropped by a later equal-sum arrival",
			pts:     [][]float32{{6, tieHi}, {5.5, tieHi}, {5, tieLo}},
			sky:     []int32{2},
			extOnly: []int32{},
		},
	} {
		ds := data.FromRows(c.pts)
		dims := []int{0, 1}
		last := len(c.pts) - 1
		if a, b := data.SumOver(c.pts[last-1], dims), data.SumOver(c.pts[last], dims); a != b {
			t.Fatalf("%s: δ-sums %v and %v do not collide", c.name, a, b)
		}
		want := Result{Skyline: c.sky, ExtOnly: c.extOnly}
		if oracle := scalarOracle(ds, allRows(ds.N), 0b11); !reflect.DeepEqual(oracle, want) {
			t.Fatalf("%s: the oracle says %+v, the case %+v", c.name, oracle, want)
		}
		for _, threads := range []int{1, 2, 3} {
			if got := Compute(ds, nil, 0b11, AlgoHybrid, threads); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, threads=%d: got %+v, want %+v", c.name, threads, got, want)
			}
		}
	}
}

// TestHybridEqualSumRunAcrossTiles puts one colliding pair where a 512-point
// tile would end, so the victim and its late dominator straddle the boundary
// unless the tile follows the run.
func TestHybridEqualSumRunAcrossTiles(t *testing.T) {
	pts := make([][]float32, 0, hybridTileSize+1)
	// 511 mutually incomparable points of smaller δ-sum fill the tile.
	for i := 0; i < hybridTileSize-1; i++ {
		pts = append(pts, []float32{float32(1000 + i), float32(2000 - i)})
	}
	pts = append(pts, []float32{6, tieHi}, []float32{5, tieLo})
	ds := data.FromRows(pts)
	checkHybrid(t, "run across a tile boundary", ds, allRows(ds.N), 0b11)
	if got := Compute(ds, nil, 0b11, AlgoHybrid, 2); len(got.Skyline) != hybridTileSize || len(got.ExtOnly) != 0 {
		t.Errorf("|S| = %d, |S⁺\\S| = %d, want %d and 0", len(got.Skyline), len(got.ExtOnly), hybridTileSize)
	}
}

// TestHybridWindowHoldsSkylineOnly bounds the kernel's work on an input whose
// S⁺ is hundreds of times its S: on a grid with the origin present, S is the
// origin's copies and S⁺ every point with a zero coordinate. A window that
// also held S⁺\S would answer the same and sweep a word per 64 of those.
func TestHybridWindowHoldsSkylineOnly(t *testing.T) {
	const n, d = 6000, 3
	rng := rand.New(rand.NewSource(3))
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = make([]float32, d)
		for j := range pts[i] {
			pts[i][j] = float32(rng.Intn(4))
		}
	}
	ds := data.FromRows(pts)
	before := dom.KernelStats().BlockSweeps
	res := Compute(ds, nil, mask.Full(d), AlgoHybrid, 1)
	sweeps := dom.KernelStats().BlockSweeps - before
	if len(res.ExtOnly) < 20*len(res.Skyline) {
		t.Fatalf("|S| = %d, |S⁺\\S| = %d: not the input this test needs", len(res.Skyline), len(res.ExtOnly))
	}
	// A point sweeps its label-compatible groups and its tile's new members:
	// at most every word that holds a member, twice.
	if limit := uint64(2 * n * (len(res.Skyline)/64 + 1)); sweeps > limit {
		t.Errorf("%d word sweeps for |S| = %d, |S⁺\\S| = %d; an S-only window needs at most %d",
			sweeps, len(res.Skyline), len(res.ExtOnly), limit)
	}
}

// TestHybridPreFilterMatchesOracle runs HybridInstrumented on cuboids above
// prologueGrain, where hybridPrepare drops every row one of the 64 lowest-sum
// rows strictly dominates before it stages the rest: S and S⁺ must still be
// the oracle's. The grid plants exact duplicates among those 64 — copies of
// the origin and of the unit vectors, which share one δ-sum — so a filter
// that dropped on non-strict dominance would lose the unit vectors' copies
// from S⁺ \ S. The I d=6 cuboid is a projection of shuffled rows. The hooks
// must report a pre-filter that dropped rows and swept one word per input
// row. The forked selection of the representatives (two or three goroutines)
// is TestHybridParallelPrologue's.
func TestHybridPreFilterMatchesOracle(t *testing.T) {
	const n = 40_000
	rng := rand.New(rand.NewSource(31))
	const d = 5
	grid := make([][]float32, n)
	for i := range grid {
		grid[i] = make([]float32, d)
		for j := range grid[i] {
			if rng.Intn(32) > 0 { // zeros are rare, which keeps S⁺ and the oracle's window small
				grid[i][j] = float32(1 + rng.Intn(3))
			}
		}
	}
	for c := 0; c < 20; c++ {
		clear(grid[rng.Intn(n)]) // the origin
		for j := 0; j < d; j++ {
			p := grid[rng.Intn(n)]
			clear(p)
			p[j] = 1 // a unit vector: in S⁺ \ S
		}
	}
	shuffled := allRows(n)
	rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

	for _, c := range []struct {
		name  string
		ds    *data.Dataset
		rows  []int32
		delta mask.Mask
	}{
		{"A d=4", gen.Synthetic(gen.Anticorrelated, n, 4, 7), allRows(n), mask.Full(4)},
		{"grid {0..3}^5", data.FromRows(grid), shuffled, mask.Full(d)},
		{"I d=6 projected, unsorted rows", gen.Synthetic(gen.Independent, n, 6, 5), shuffled, 0b110101},
	} {
		want := scalarOracle(c.ds, c.rows, c.delta)
		if c.name == "grid {0..3}^5" && len(want.ExtOnly) < 100 {
			t.Fatalf("%s: |S⁺\\S| = %d, not the input this test needs", c.name, len(want.ExtOnly))
		}
		for _, threads := range []int{1, 2} {
			var survivors, words int
			got := HybridInstrumented(c.ds, c.rows, c.delta, threads, &HybridHooks{
				Filter: func(rows []int32, sweeps int) { survivors, words = len(rows), sweeps },
				Spread: func(_ []int32, _ int, probe func(w, lo, hi int), fanOut func(func(w, lo, hi int))) {
					fanOut(probe)
				},
				Group: func(w, t, gi, id, sweeps int) {},
				Fresh: func(p, sweeps int) {},
			})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s threads=%d: |S| = %d, |S⁺\\S| = %d; the oracle's %d and %d",
					c.name, threads, len(got.Skyline), len(got.ExtOnly), len(want.Skyline), len(want.ExtOnly))
			}
			if survivors >= n || survivors < want.ExtendedSize() || words != n {
				t.Errorf("%s threads=%d: %d of %d rows survived the pre-filter (|S⁺| = %d) after %d words, want fewer, and %d words",
					c.name, threads, survivors, n, want.ExtendedSize(), words, n)
			}
		}
	}
}
