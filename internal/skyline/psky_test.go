package skyline

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

func TestPSkylineAgreesWithBNL(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.Anticorrelated} {
		ds := gen.Synthetic(dist, 900, 5, 13)
		for _, delta := range []mask.Mask{1, 0b10101, mask.Full(5)} {
			ref := Compute(ds, nil, delta, AlgoBNL, 1)
			got := Compute(ds, nil, delta, AlgoPSkyline, 4)
			if !reflect.DeepEqual(got.Skyline, ref.Skyline) {
				t.Errorf("%v δ=%b: PSkyline %d ids != BNL %d ids", dist, delta, len(got.Skyline), len(ref.Skyline))
			}
			if !reflect.DeepEqual(got.ExtOnly, ref.ExtOnly) {
				t.Errorf("%v δ=%b: PSkyline extOnly mismatch", dist, delta)
			}
		}
	}
}

func TestPSkylineSingleThreadFallsBack(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 300, 4, 7)
	delta := mask.Full(4)
	a := Compute(ds, nil, delta, AlgoPSkyline, 1)
	b := Compute(ds, nil, delta, AlgoBNL, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("single-thread PSkyline should equal BNL")
	}
}

func TestPSkylineManyThreadsSmallInput(t *testing.T) {
	// More threads than sensible for the input size must still be correct.
	ds := gen.Synthetic(gen.Anticorrelated, 50, 3, 5)
	delta := mask.Full(3)
	ref := Compute(ds, nil, delta, AlgoBNL, 1)
	got := Compute(ds, nil, delta, AlgoPSkyline, 64)
	if !reflect.DeepEqual(got, ref) {
		t.Error("PSkyline with excess threads diverged")
	}
}

func TestSkyMergeCrossDomination(t *testing.T) {
	// Regression for the transitive-merge subtlety: a ∈ A dominated by
	// b ∈ B, where b is itself dominated by a' ∈ A. Both a and b must go.
	ds := data.FromRows([][]float32{
		{0.9, 0.9}, // a  (slice A) — dominated by b
		{0.1, 0.1}, // a' (slice A) — dominates everything
		{0.5, 0.5}, // b  (slice B) — dominates a, dominated by a'
		{0.8, 0.7}, // b2 (slice B) — dominated by a'
	})
	a := bnlFilter(ds, []int32{0, 1}, 0b11, false, nil)
	b := bnlFilter(ds, []int32{2, 3}, 0b11, false, nil)
	merged := skyMerge(ds, a, b, 0b11, false)
	if len(merged) != 1 || merged[0] != 1 {
		t.Errorf("skyMerge = %v, want [1]", merged)
	}
}

// TestSkyMergeOfHalvesMatchesBNL merges the window filters of two halves and
// compares the result with the window filter of the whole, on tie- and
// duplicate-heavy inputs of 1 to 300 points of 2 to 7 dimensions, each in a
// random subspace.
func TestSkyMergeOfHalvesMatchesBNL(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 150; trial++ {
		d := 2 + rng.Intn(6)
		n := []int{1, 2, 40, 63, 64, 65, 130, 300}[rng.Intn(8)]
		pts := make([][]float32, n)
		for i := range pts {
			pts[i] = make([]float32, d)
			for j := range pts[i] {
				pts[i][j] = float32(rng.Intn(6)) / 4
			}
		}
		for i := 0; i < n/8; i++ {
			pts[rng.Intn(n)] = pts[rng.Intn(n)] // exact duplicates
		}
		ds := data.FromRows(pts)
		rows := allRows(n)
		rng.Shuffle(n, func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		delta := mask.Mask(1 + rng.Intn(1<<uint(d)-1))
		for _, strict := range []bool{true, false} {
			want := bnlFilter(ds, rows, delta, strict, nil)
			a := bnlFilter(ds, rows[:n/2], delta, strict, nil)
			b := bnlFilter(ds, rows[n/2:], delta, strict, nil)
			got := skyMerge(ds, a, b, delta, strict)
			slices.Sort(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d n=%d δ=%b strict=%v: merged halves keep %v, BNL %v", trial, n, delta, strict, got, want)
			}
		}
	}
}

func TestPSkylineOddPartitionCount(t *testing.T) {
	// Odd reduction-tree width exercises the carry-over branch.
	ds := gen.Synthetic(gen.Independent, 700, 4, 21)
	delta := mask.Full(4)
	ref := Compute(ds, nil, delta, AlgoBNL, 1)
	got := Compute(ds, nil, delta, AlgoPSkyline, 5)
	if !reflect.DeepEqual(got, ref) {
		t.Error("PSkyline with 5 threads diverged")
	}
}

func TestPSkylineString(t *testing.T) {
	if AlgoPSkyline.String() != "PSkyline" {
		t.Error("label wrong")
	}
}

// BSkyTree's MinL1 pivot filter agrees with BNL in a subspace, a three-
// dimensional one and the full space, strict and not.
func TestPivotStrategiesAgree(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Anticorrelated, gen.Correlated} {
		ds := gen.Synthetic(dist, 700, 5, 29)
		for _, delta := range []mask.Mask{1, 0b10110, mask.Full(5)} {
			for _, strict := range []bool{false, true} {
				want := bnlFilter(ds, allRows(ds.N), delta, strict, nil)
				if got := PivotFilter(ds, allRows(ds.N), delta, strict, nil); !reflect.DeepEqual(got, want) {
					t.Errorf("%v δ=%b strict=%v: %d ids != %d ids", dist, delta, strict, len(got), len(want))
				}
			}
		}
	}
}

// Two points repeated 150 times each: the pivot kills one half, and the
// partition of its own duplicates cannot make progress, so the filter
// finishes that partition with the BNL leaf.
func TestPivotStrategiesOnDuplicates(t *testing.T) {
	rows := make([][]float32, 300)
	for i := range rows {
		rows[i] = []float32{float32(i % 2), float32(i % 2), 0.5}
	}
	ds := data.FromRows(rows)
	want := bnlFilter(ds, allRows(ds.N), 0b111, false, nil)
	if got := PivotFilter(ds, allRows(ds.N), 0b111, false, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("duplicates broke the pivot filter: %d ids != %d ids", len(got), len(want))
	}
}
