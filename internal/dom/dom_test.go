package dom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skycube/internal/mask"
)

// The flights of Table 1 with the paper's bit order — dimension 0 is
// Arrival, 1 is Duration, 2 is Price (the paper writes points as
// (p[d−1], …, p[0]) with Price leftmost). Smaller is better; earlier
// arrival is better so clock times are used directly.
var flights = [][]float32{
	{12.20, 17, 120}, // f0
	{9.00, 12, 148},  // f1
	{8.20, 13, 169},  // f2
	{21.25, 3, 186},  // f3
	{21.25, 5, 196},  // f4
}

func TestCompareFlightExamples(t *testing.T) {
	// Paper §2.1: B_{f0≤f1} = 100, B_{f1≤f0} = 011, B_{f0=f1} = 000.
	r01 := Compare(flights[0], flights[1])
	if r01.Leq() != 0b100 {
		t.Errorf("B_{f0≤f1} = %03b, want 100", r01.Leq())
	}
	if r01.Eq != 0 {
		t.Errorf("B_{f0=f1} = %03b, want 000", r01.Eq)
	}
	r10 := Compare(flights[1], flights[0])
	if r10.Leq() != 0b011 {
		t.Errorf("B_{f1≤f0} = %03b, want 011", r10.Leq())
	}
}

func TestDominanceFlightExamples(t *testing.T) {
	// §2.2: f1 ≺ f0 in δ = 011.
	if !DominatesIn(flights[1], flights[0], 0b011) {
		t.Error("f1 should dominate f0 in δ=011")
	}
	// f3 strictly dominates f4 in δ = 110 …
	if !StrictlyDominatesIn(flights[3], flights[4], 0b110) {
		t.Error("f3 should strictly dominate f4 in δ=110")
	}
	// … but merely dominates f4 in δ = 111 (equal arrival).
	if !DominatesIn(flights[3], flights[4], 0b111) {
		t.Error("f3 should dominate f4 in δ=111")
	}
	if StrictlyDominatesIn(flights[3], flights[4], 0b111) {
		t.Error("f3 should NOT strictly dominate f4 in δ=111")
	}
}

func TestDominanceIrreflexive(t *testing.T) {
	for _, f := range flights {
		for _, delta := range mask.Subspaces(3) {
			if DominatesIn(f, f, delta) {
				t.Fatalf("point dominates itself in δ=%b", delta)
			}
		}
	}
}

func randPoint(rng *rand.Rand, d int) []float32 {
	p := make([]float32, d)
	for i := range p {
		// Small integer domain to exercise equality cases frequently.
		p[i] = float32(rng.Intn(5))
	}
	return p
}

func TestDominanceAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const d = 6
	for it := 0; it < 2000; it++ {
		p, q := randPoint(rng, d), randPoint(rng, d)
		delta := mask.Mask(rng.Intn(1<<d-1) + 1)
		if DominatesIn(p, q, delta) && DominatesIn(q, p, delta) {
			t.Fatalf("dominance is symmetric for p=%v q=%v δ=%b", p, q, delta)
		}
	}
}

func TestDominanceTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const d = 5
	for it := 0; it < 2000; it++ {
		p, q, r := randPoint(rng, d), randPoint(rng, d), randPoint(rng, d)
		delta := mask.Mask(rng.Intn(1<<d-1) + 1)
		if DominatesIn(p, q, delta) && DominatesIn(q, r, delta) {
			if !DominatesIn(p, r, delta) {
				t.Fatalf("transitivity broken: p=%v q=%v r=%v δ=%b", p, q, r, delta)
			}
		}
	}
}

func TestStrictImpliesDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const d = 6
	for it := 0; it < 2000; it++ {
		p, q := randPoint(rng, d), randPoint(rng, d)
		delta := mask.Mask(rng.Intn(1<<d-1) + 1)
		if StrictlyDominatesIn(p, q, delta) && !DominatesIn(p, q, delta) {
			t.Fatalf("strict dominance without dominance: p=%v q=%v δ=%b", p, q, delta)
		}
	}
}

func TestDominancePropagatesToSubspaces(t *testing.T) {
	// Strict dominance in δ propagates to every non-empty submask of δ —
	// the invariant MDMC's filter exploits.
	rng := rand.New(rand.NewSource(4))
	const d = 5
	for it := 0; it < 1000; it++ {
		p, q := randPoint(rng, d), randPoint(rng, d)
		delta := mask.Mask(rng.Intn(1<<d-1) + 1)
		if !StrictlyDominatesIn(p, q, delta) {
			continue
		}
		for sub := delta; sub != 0; sub = (sub - 1) & delta {
			if !StrictlyDominatesIn(p, q, sub) {
				t.Fatalf("strict dominance did not propagate to %b ⊆ %b", sub, delta)
			}
		}
	}
}

func TestCompareInMatchesCompare(t *testing.T) {
	f := func(a, b [8]uint8, d16 uint16) bool {
		const d = 8
		p, q := make([]float32, d), make([]float32, d)
		for i := 0; i < d; i++ {
			p[i], q[i] = float32(a[i]%4), float32(b[i]%4)
		}
		delta := mask.Mask(d16)&mask.Full(d) | 1
		full := Compare(p, q)
		proj := CompareIn(p, q, delta)
		return proj.Lt == full.Lt&delta && proj.Eq == full.Eq&delta
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMaskTestSoundness(t *testing.T) {
	// If MaskTest returns false, p must not dominate q in δ — for every
	// pivot. (Completeness does not hold: a true result is inconclusive.)
	rng := rand.New(rand.NewSource(5))
	const d = 5
	for it := 0; it < 5000; it++ {
		piv := randPoint(rng, d)
		p, q := randPoint(rng, d), randPoint(rng, d)
		delta := mask.Mask(rng.Intn(1<<d-1) + 1)
		bPivP := Compare(piv, p).Leq()
		bPivQ := Compare(piv, q).Leq()
		if !MaskTest(bPivP, bPivQ, delta) && DominatesIn(p, q, delta) {
			t.Fatalf("mask test rejected a real dominance: piv=%v p=%v q=%v δ=%b", piv, p, q, delta)
		}
	}
}

func TestMaskTestPaperExample(t *testing.T) {
	// Appendix B.2 with pivot f2 on (Arrival, Duration): the region of f0
	// cannot dominate the region of f1 because f0 is worse than the pivot
	// on both dimensions while f1 is better on one.
	piv := flights[2][:2]
	bPivP := Compare(piv, flights[0][:2]).Leq() // π ≤ f0 per dimension
	bPivQ := Compare(piv, flights[1][:2]).Leq()
	if MaskTest(bPivP, bPivQ, 0b11) {
		t.Errorf("mask test should prove f0 cannot dominate f1 (bPivP=%02b bPivQ=%02b)", bPivP, bPivQ)
	}
	// Opposite direction is inconclusive (must return true).
	if !MaskTest(bPivQ, bPivP, 0b11) {
		t.Error("mask test for f1 vs f0 should be inconclusive (true)")
	}
}

func TestStrictTransitive(t *testing.T) {
	// §5.2 worked example with pm = (12.20, 12, 169): in <-mask encoding
	// B_{f0<pm} = 100 (only Price below the median) and B_{f4<pm} = 010
	// (only Duration). f0 is below the median exactly where f4 is not, so
	// f0 strictly dominates f4 in δ = 100 — the paper's δ = 4.
	if got := StrictTransitive(0b100, 0b010); got != 0b100 {
		t.Errorf("StrictTransitive(100,010) = %03b, want 100", got)
	}
	if got := StrictTransitive(0b101, 0b101); got != 0 {
		t.Errorf("equal masks must convey nothing, got %03b", got)
	}
}

func TestStrictTransitiveSound(t *testing.T) {
	// Whenever the tree labels imply strict dominance, an exact DT must
	// agree on that subspace.
	rng := rand.New(rand.NewSource(6))
	const d = 6
	for it := 0; it < 5000; it++ {
		piv := randPoint(rng, d)
		p, q := randPoint(rng, d), randPoint(rng, d)
		bQ := Compare(q, piv).Lt // dims where q < pivot
		bP := Compare(p, piv).Lt
		delta := StrictTransitive(bQ, bP)
		if delta == 0 {
			continue
		}
		if !StrictlyDominatesIn(q, p, delta) {
			t.Fatalf("transitive claim wrong: piv=%v q=%v p=%v δ=%b", piv, q, p, delta)
		}
	}
}

func BenchmarkCompare16(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, q := randPoint(rng, 16), randPoint(rng, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Compare(p, q).Lt
	}
}

// BenchmarkCompareIn16 measures the projected DT over a half-populated
// 16-dim subspace: one trailingZeros per set bit of δ, so the bit-scan cost
// (bits.TrailingZeros32 vs the old shift loop) dominates the difference.
func BenchmarkCompareIn16(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, q := randPoint(rng, 16), randPoint(rng, 16)
	const delta = mask.Mask(0b1010101010101010)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = CompareIn(p, q, delta).Lt
	}
}

// BenchmarkCompareInSparse is the sparse-subspace case (2 of 16 dims, the
// high bits): the shift loop paid 14+15 iterations here, the hardware bit
// scan pays one instruction per set bit.
func BenchmarkCompareInSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, q := randPoint(rng, 16), randPoint(rng, 16)
	const delta = mask.Mask(0b1100000000000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = CompareIn(p, q, delta).Lt
	}
}

var sink mask.Mask
