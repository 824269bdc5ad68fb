package skyline

import (
	"math/rand"
	"reflect"
	"testing"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// Table 1 flights with dimension 0 = Arrival, 1 = Duration, 2 = Price.
func flightData() *data.Dataset {
	return data.FromRows([][]float32{
		{12.20, 17, 120}, // f0
		{9.00, 12, 148},  // f1
		{8.20, 13, 169},  // f2
		{21.25, 3, 186},  // f3
		{21.25, 5, 196},  // f4
	})
}

// Figure 1a ground truth: subspace → skyline ids.
var flightSkylines = map[mask.Mask][]int32{
	0b100: {0},          // S4 (Price): f0
	0b010: {3},          // S2 (Duration): f3
	0b001: {2},          // S1 (Arrival): f2
	0b101: {0, 1, 2},    // S5
	0b110: {0, 1, 3},    // S6
	0b011: {1, 2, 3},    // S3
	0b111: {0, 1, 2, 3}, // S7
}

func TestFlightSkylinesAllAlgorithms(t *testing.T) {
	ds := flightData()
	for _, algo := range []Algo{AlgoBNL, AlgoBSkyTree, AlgoHybrid} {
		for delta, want := range flightSkylines {
			got := Compute(ds, nil, delta, algo, 2)
			if !reflect.DeepEqual(got.Skyline, want) {
				t.Errorf("%v: S_%d = %v, want %v", algo, delta, got.Skyline, want)
			}
		}
	}
}

func TestFlightExtendedSkyline(t *testing.T) {
	// §2.2: S⁺_3 additionally includes f4 (ties f3 on arrival time).
	ds := flightData()
	for _, algo := range []Algo{AlgoBNL, AlgoBSkyTree, AlgoHybrid} {
		res := Compute(ds, nil, 0b011, algo, 1)
		if !reflect.DeepEqual(res.ExtOnly, []int32{4}) {
			t.Errorf("%v: S⁺_3 \\ S_3 = %v, want [4]", algo, res.ExtOnly)
		}
		ext := res.Extended()
		if !reflect.DeepEqual(ext, []int32{1, 2, 3, 4}) {
			t.Errorf("%v: S⁺_3 = %v, want [1 2 3 4]", algo, ext)
		}
	}
}

func TestAlgorithmsAgreeOnRandomData(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.Anticorrelated} {
		for _, d := range []int{2, 4, 6} {
			ds := gen.Synthetic(dist, 600, d, int64(d)*17)
			rng := rand.New(rand.NewSource(int64(d)))
			deltas := []mask.Mask{mask.Full(d), 1}
			for i := 0; i < 4; i++ {
				deltas = append(deltas, mask.Mask(rng.Intn(1<<d-1)+1))
			}
			for _, delta := range deltas {
				ref := Compute(ds, nil, delta, AlgoBNL, 1)
				for _, algo := range []Algo{AlgoBSkyTree, AlgoHybrid} {
					got := Compute(ds, nil, delta, algo, 3)
					if !reflect.DeepEqual(got.Skyline, ref.Skyline) {
						t.Errorf("%v/%v d=%d δ=%b: skyline %v != BNL %v",
							dist, algo, d, delta, got.Skyline, ref.Skyline)
					}
					if !reflect.DeepEqual(got.ExtOnly, ref.ExtOnly) {
						t.Errorf("%v/%v d=%d δ=%b: extOnly %v != BNL %v",
							dist, algo, d, delta, got.ExtOnly, ref.ExtOnly)
					}
				}
			}
		}
	}
}

func TestHybridLargerInputAgrees(t *testing.T) {
	// Force multiple tiles (n >> α) and multiple threads.
	ds := gen.Synthetic(gen.Anticorrelated, 5000, 5, 99)
	delta := mask.Full(5)
	ref := Compute(ds, nil, delta, AlgoBSkyTree, 1)
	got := Compute(ds, nil, delta, AlgoHybrid, 4)
	if !reflect.DeepEqual(got.Skyline, ref.Skyline) {
		t.Errorf("hybrid skyline (%d) != bskytree (%d)", len(got.Skyline), len(ref.Skyline))
	}
	if !reflect.DeepEqual(got.ExtOnly, ref.ExtOnly) {
		t.Errorf("hybrid extOnly (%d) != bskytree (%d)", len(got.ExtOnly), len(ref.ExtOnly))
	}
}

func TestHybridConstantColumnAndDuplicates(t *testing.T) {
	// A five-value grid with one constant column: every pivot ties with
	// most of its column, δ-sums repeat in long runs and most points have
	// exact duplicates. Rows arrive unordered, so the tile order cannot
	// lean on the input's.
	const n, d = 4*hybridTileSize + 700, 5
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float32, n)
	for i := range pts {
		pts[i] = make([]float32, d)
		for j := range pts[i] {
			pts[i][j] = float32(rng.Intn(5)) / 4
		}
		pts[i][2] = 0.5
	}
	ds := data.FromRows(pts)
	rows := allRows(n)
	rng.Shuffle(n, func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })

	for _, delta := range []mask.Mask{mask.Full(d), 0b01101, 0b00100} {
		want := scalarOracle(ds, rows, delta)
		for _, threads := range []int{1, 2} {
			if got := Compute(ds, rows, delta, AlgoHybrid, threads); !reflect.DeepEqual(got, want) {
				t.Errorf("δ=%05b threads=%d: hybrid has |S|=%d |S⁺\\S|=%d, scalar BNL %d and %d",
					delta, threads, len(got.Skyline), len(got.ExtOnly), len(want.Skyline), len(want.ExtOnly))
			}
		}
	}
}

func TestDuplicatePointsStayInSkyline(t *testing.T) {
	// Identical points do not dominate one another (Definition 1 requires a
	// differing dimension), so duplicates of a skyline point all survive.
	ds := data.FromRows([][]float32{
		{0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9},
	})
	for _, algo := range []Algo{AlgoBNL, AlgoBSkyTree, AlgoHybrid} {
		res := Compute(ds, nil, 0b11, algo, 1)
		if !reflect.DeepEqual(res.Skyline, []int32{0, 1}) {
			t.Errorf("%v: skyline = %v, want [0 1]", algo, res.Skyline)
		}
	}
}

func TestAllDuplicatesDegenerate(t *testing.T) {
	// Pathological input for pivot partitioning: every point identical.
	rows := make([][]float32, 200)
	for i := range rows {
		rows[i] = []float32{0.3, 0.7, 0.1}
	}
	ds := data.FromRows(rows)
	for _, algo := range []Algo{AlgoBNL, AlgoBSkyTree, AlgoHybrid} {
		res := Compute(ds, nil, 0b111, algo, 2)
		if len(res.Skyline) != 200 {
			t.Errorf("%v: %d of 200 duplicates in skyline", algo, len(res.Skyline))
		}
		if len(res.ExtOnly) != 0 {
			t.Errorf("%v: %d duplicates marked extended-only", algo, len(res.ExtOnly))
		}
	}
}

func TestSkylineSubsetOfExtended(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 800, 6, 5)
	for _, delta := range []mask.Mask{1, 0b101, mask.Full(6)} {
		res := Compute(ds, nil, delta, AlgoBSkyTree, 1)
		ext := make(map[int32]bool)
		for _, r := range res.Extended() {
			ext[r] = true
		}
		for _, r := range res.Skyline {
			if !ext[r] {
				t.Fatalf("skyline row %d missing from extended skyline", r)
			}
		}
	}
}

func TestExtendedContainment(t *testing.T) {
	// The key property the top-down traversal relies on (§2.2): S⁺ of δ
	// contains S⁺ of every subspace δ′ ⊆ δ.
	ds := gen.Synthetic(gen.Independent, 400, 5, 21)
	d := 5
	full := mask.Full(d)
	extFull := make(map[int32]bool)
	for _, r := range ExtendedSkyline(ds, nil, full, AlgoBNL, 1) {
		extFull[r] = true
	}
	for _, delta := range mask.Subspaces(d) {
		for _, r := range ExtendedSkyline(ds, nil, delta, AlgoBNL, 1) {
			if !extFull[r] {
				t.Fatalf("S⁺_%b row %d not in S⁺_full", delta, r)
			}
		}
	}
}

func TestComputeOnRowSubset(t *testing.T) {
	// Computing within a row subset must equal computing on the subset
	// dataset — the reduced-input pattern of the lattice traversal.
	ds := gen.Synthetic(gen.Anticorrelated, 500, 4, 33)
	delta := mask.Mask(0b0111)
	ext := ExtendedSkyline(ds, nil, mask.Full(4), AlgoBNL, 1)
	res := Compute(ds, ext, delta, AlgoBSkyTree, 1)

	intRows := make([]int, len(ext))
	for i, r := range ext {
		intRows[i] = int(r)
	}
	sub := ds.Subset(intRows)
	resSub := Compute(sub, nil, delta, AlgoBNL, 1)
	// Map subset rows back through IDs (identity here since gen ids are
	// identity and Subset preserves them).
	want := make([]int32, len(resSub.Skyline))
	for i, r := range resSub.Skyline {
		want[i] = sub.IDs[r]
	}
	if !reflect.DeepEqual(res.Skyline, want) {
		t.Errorf("subset rows: %v != subset dataset: %v", res.Skyline, want)
	}
}

func TestSingletonSubspace(t *testing.T) {
	// In a 1-d subspace the skyline is every point tied at the minimum.
	ds := data.FromRows([][]float32{{3, 9}, {1, 5}, {1, 7}, {2, 1}})
	for _, algo := range []Algo{AlgoBNL, AlgoBSkyTree, AlgoHybrid} {
		res := Compute(ds, nil, 0b01, algo, 1)
		if !reflect.DeepEqual(res.Skyline, []int32{1, 2}) {
			t.Errorf("%v: S_1 = %v, want [1 2]", algo, res.Skyline)
		}
		// Extended skyline in 1-d equals the skyline (any tie is equality,
		// and equal values are never strictly dominated).
		if len(res.ExtOnly) != 0 {
			t.Errorf("%v: 1-d extOnly = %v, want empty", algo, res.ExtOnly)
		}
	}
}

func TestResultExtendedMerge(t *testing.T) {
	r := Result{Skyline: []int32{1, 4, 9}, ExtOnly: []int32{2, 7, 11}}
	want := []int32{1, 2, 4, 7, 9, 11}
	if got := r.Extended(); !reflect.DeepEqual(got, want) {
		t.Errorf("Extended() = %v, want %v", got, want)
	}
	if r.ExtendedSize() != 6 {
		t.Errorf("ExtendedSize = %d", r.ExtendedSize())
	}
}

func TestStatusAll(t *testing.T) {
	ds := flightData()
	st := StatusAll(ds, 0b011, AlgoBNL, 1)
	want := []Status{Dominated, InSkyline, InSkyline, InSkyline, ExtendedOnly}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("StatusAll = %v, want %v", st, want)
	}
}

func TestAlgoStrings(t *testing.T) {
	if AlgoBNL.String() != "BNL" || AlgoBSkyTree.String() != "BSkyTree" || AlgoHybrid.String() != "Hybrid" {
		t.Error("algo labels wrong")
	}
	if Algo(9).String() != "?" {
		t.Error("unknown algo label")
	}
}
