package data

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// selectColumns returns the column shapes SelectRanks must handle, each of
// length n.
func selectColumns(n int, rng *rand.Rand) map[string][]float32 {
	cols := map[string][]float32{
		"random":    make([]float32, n),
		"constant":  make([]float32, n),
		"sorted":    make([]float32, n),
		"reversed":  make([]float32, n),
		"organpipe": make([]float32, n),
		"dupheavy":  make([]float32, n),
		"signed":    make([]float32, n),
		"killer":    medianOfThreeKiller(n),
	}
	for i := 0; i < n; i++ {
		cols["random"][i] = rng.Float32()
		cols["constant"][i] = 0.5
		cols["sorted"][i] = float32(i)
		cols["reversed"][i] = float32(n - i)
		cols["organpipe"][i] = float32(min(i, n-1-i))
		cols["dupheavy"][i] = float32(rng.Intn(4))
		// Negative values and both zeros, which compare equal.
		cols["signed"][i] = []float32{-1.5, float32(math.Copysign(0, -1)), 0, 2, -rng.Float32()}[rng.Intn(5)]
	}
	return cols
}

// medianOfThreeKiller is Musser's sequence: a permutation of 1..n built so
// that a first/middle/last median-of-three pivot keeps landing among the
// smallest remaining values. At n = 10⁵ it runs SelectRanks out of its depth
// budget (measured: four ranges end in the fallback sort).
func medianOfThreeKiller(n int) []float32 {
	col := make([]float32, n)
	k := n / 2
	for i := 1; i <= k; i++ {
		if i%2 == 1 {
			col[i-1] = float32(i)
		} else {
			col[i-1] = float32(k + i - 1)
		}
		col[k+i-1] = float32(2 * i)
	}
	if n%2 == 1 {
		col[n-1] = float32(n)
	}
	return col
}

// pivotRanks are the order statistics stree.Build reads, a superset of what
// the skyline pivots read, clamped as the callers clamp them.
func pivotRanks(n int) []int {
	ranks := make([]int, 0, 7)
	for e := 1; e <= 7; e++ {
		ranks = append(ranks, min(e*n/8, n-1))
	}
	return ranks
}

func checkSelect(t *testing.T, name string, col []float32, ranks []int, sel func([]float32)) {
	t.Helper()
	want := slices.Clone(col)
	slices.Sort(want)
	got := slices.Clone(col)
	sel(got)
	for _, r := range ranks {
		// == on purpose: −0 and +0 are the same pivot.
		if got[r] != want[r] {
			t.Fatalf("%s n=%d: rank %d holds %v, a full sort puts %v there", name, len(col), r, got[r], want[r])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d: selection changed the column's multiset", name, len(col))
	}
}

func TestSelectRanksEqualsFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 15, 16, 17, 100_000} {
		ranks := pivotRanks(n)
		for name, col := range selectColumns(n, rng) {
			checkSelect(t, name, col, ranks, func(c []float32) { SelectRanks(c, ranks...) })
		}
	}
	// Every single rank, and every rank at once, of a small column.
	col := selectColumns(67, rng)["dupheavy"]
	all := make([]int, len(col))
	for r := range col {
		all[r] = r
		checkSelect(t, "single", col, []int{r}, func(c []float32) { SelectRanks(c, r) })
	}
	checkSelect(t, "all", col, all, func(c []float32) { SelectRanks(c, all...) })
}

// An exhausted depth budget hands the remaining range to a full sort, so the
// ranks stay exact at any budget and the killer cannot go quadratic.
func TestSelectRanksDepthBound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 100_000
	ranks := pivotRanks(n)
	for name, col := range selectColumns(n, rng) {
		for _, limit := range []int{0, 1, 3} {
			checkSelect(t, name, col, ranks, func(c []float32) { selectRanks(c, 0, ranks, limit) })
		}
	}

	// Each unit of budget scans a range at most once; without the bound the
	// killer scans about 170x that (measured: 5.9e8 elements against 2.3e6).
	limit := selectDepth(n)
	if scanned := selectRanks(medianOfThreeKiller(n), 0, ranks, limit); scanned > limit*n {
		t.Fatalf("killer n=%d: partition passes scanned %d elements, bound %d", n, scanned, limit*n)
	}
}

// sumOrderOracle is the comparator the six replaced sort.Slice sites used,
// under a stable sort.
func sumOrderOracle(sums []float32, rows []int32) []int32 {
	ord := make([]int32, len(sums))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.SliceStable(ord, func(a, b int) bool {
		ia, ib := ord[a], ord[b]
		if sums[ia] != sums[ib] {
			return sums[ia] < sums[ib]
		}
		return rows[ia] < rows[ib]
	})
	return ord
}

func TestSumOrderEqualsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	palette := []float32{negZero, 0, -1, 1, -1e-30, 1e-30, -3.5e20, 3.5e20, 0.25, 0.2500001,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, inf, -inf}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 1000, 70_000} {
		ascending := make([]int32, n)
		shuffled := make([]int32, n)
		dupRows := make([]int32, n)
		for i := range ascending {
			ascending[i] = int32(3 * i)
			shuffled[i] = int32(3 * i)
			dupRows[i] = int32(rng.Intn(5))
		}
		rng.Shuffle(n, func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

		sumSets := map[string][]float32{
			"random":  make([]float32, n), // distinct, all four digits vary
			"signed":  make([]float32, n), // negative sums
			"palette": make([]float32, n), // ±0, extremes, heavy duplicates
			"longrun": make([]float32, n), // two equal-sum runs of n/2
			"narrow":  make([]float32, n), // one shared exponent: digit passes skipped
		}
		for i := 0; i < n; i++ {
			sumSets["random"][i] = float32(rng.NormFloat64() * 1e3)
			sumSets["signed"][i] = rng.Float32() - 0.5
			sumSets["palette"][i] = palette[rng.Intn(len(palette))]
			sumSets["longrun"][i] = float32(i % 2)
			sumSets["narrow"][i] = 1 + float32(rng.Intn(200))/256
		}
		for sname, sums := range sumSets {
			for rname, rows := range map[string][]int32{"ascending": ascending, "shuffled": shuffled, "dups": dupRows} {
				if got, want := SumOrder(sums, rows), sumOrderOracle(sums, rows); !slices.Equal(got, want) {
					t.Fatalf("n=%d sums=%s rows=%s: SumOrder differs from the stable comparator sort", n, sname, rname)
				}
			}
		}
	}
}

// FuzzSumOrder feeds arbitrary float32 bit patterns and small, repeating,
// unordered row ids: six bytes per element, four of sum bits and two of row.
func FuzzSumOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0}) // −0 then +0, rows descending
	f.Add([]byte{0, 0, 0x80, 0xbf, 2, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 0x80, 0xbf, 1, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 6
		sums := make([]float32, n)
		rows := make([]int32, n)
		for i := range sums {
			s := math.Float32frombits(binary.LittleEndian.Uint32(raw[6*i:]))
			if s != s {
				s = 0 // NaN has no place in the order and cannot occur
			}
			sums[i] = s
			rows[i] = int32(binary.LittleEndian.Uint16(raw[6*i+4:]))
		}
		if got, want := SumOrder(sums, rows), sumOrderOracle(sums, rows); !slices.Equal(got, want) {
			t.Fatalf("SumOrder(%v, %v) = %v, stable comparator sort gives %v", sums, rows, got, want)
		}
	})
}
