package dom

import (
	"math/rand"
	"testing"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// lanePoint reconstructs the projected coordinates of one lane.
func lanePoint(b *data.Block, lane int, buf []float32) []float32 {
	buf = buf[:0]
	for _, col := range b.Cols {
		buf = append(buf, col[lane])
	}
	return buf
}

// scalarAnyDominator is the reference loop the block kernels must match.
func scalarAnyDominator(bs *data.BlockSet, pq []float32, strict bool) bool {
	full := mask.Full(bs.K)
	buf := make([]float32, bs.K)
	for _, b := range bs.Blocks {
		for lane := 0; lane < b.N; lane++ {
			if !b.IsAlive(lane) {
				continue
			}
			r := Compare(lanePoint(b, lane, buf), pq)
			if strict {
				if RelStrictlyDominates(r, full) {
					return true
				}
			} else if RelDominates(r, full) {
				return true
			}
		}
	}
	return false
}

// scalarVerdict is the reference loop BlocksVerdict must match.
func scalarVerdict(bs *data.BlockSet, pq []float32) Verdict {
	switch {
	case scalarAnyDominator(bs, pq, true):
		return StrictlyDominated
	case scalarAnyDominator(bs, pq, false):
		return Dominated
	}
	return Undominated
}

func randBlockSet(rng *rand.Rand, k, n, blockSize int, grid int) ([]float32, *data.BlockSet) {
	pts := make([][]float32, n)
	dims := make([]int, k)
	for j := range dims {
		dims[j] = j
	}
	for i := range pts {
		p := make([]float32, k)
		for j := range p {
			p[j] = float32(rng.Intn(grid)) / float32(grid)
		}
		pts[i] = p
	}
	ds := data.FromRows(pts)
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	bs := data.SortedBlocksOf(ds, rows, dims, blockSize)
	q := make([]float32, k)
	for j := range q {
		q[j] = float32(rng.Intn(grid)) / float32(grid)
	}
	return q, bs
}

func TestBlockKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tally KernelTally
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(8)
		n := 1 + rng.Intn(400)
		grid := []int{2, 4, 16, 1024}[rng.Intn(4)]
		pq, bs := randBlockSet(rng, k, n, 64+64*rng.Intn(4), grid)
		// Kill a random subset so the Alive masking is exercised.
		for _, b := range bs.Blocks {
			for lane := 0; lane < b.N; lane++ {
				if rng.Intn(5) == 0 {
					b.Kill(lane)
				}
			}
		}
		eachKernel(func(impl string) {
			for _, strict := range []bool{false, true} {
				want := scalarAnyDominator(bs, pq, strict)
				got := BlocksAnyDominator(bs, pq, 0, strict, false, &tally)
				if got != want {
					t.Fatalf("trial %d %s strict=%v: block %v, scalar %v", trial, impl, strict, got, want)
				}
			}
			if got, want := BlocksVerdict(bs, pq, &tally), scalarVerdict(bs, pq); got != want {
				t.Fatalf("trial %d %s: verdict %v, scalar %v", trial, impl, got, want)
			}
		})
		data.PutBlockSet(bs)
	}
	tally.Flush()
}

func TestCompareBlockMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(10)
		n := 1 + rng.Intn(200)
		cols := make([][]float32, k)
		for j := range cols {
			cols[j] = make([]float32, n)
			for i := range cols[j] {
				cols[j][i] = float32(rng.Intn(8))
			}
		}
		pp := make([]float32, k)
		for j := range pp {
			pp[j] = float32(rng.Intn(8))
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		out := make([]Rel, hi-lo)
		CompareBlock(cols, lo, hi, pp, out)
		buf := make([]float32, k)
		for i := lo; i < hi; i++ {
			for j := 0; j < k; j++ {
				buf[j] = cols[j][i]
			}
			if want := Compare(buf, pp); out[i-lo] != want {
				t.Fatalf("trial %d lane %d: %+v, want %+v", trial, i, out[i-lo], want)
			}
		}
	}
}

// TestStopPointSound is the soundness check of sorted stop-point filtering:
// on sum-sorted block sets, stopping at the first block with MinSum > psum
// must never change the verdict.
func TestStopPointSound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var tally KernelTally
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(6)
		n := 1 + rng.Intn(400)
		pq, bs := randBlockSet(rng, k, n, 64, 6)
		dims := make([]int, k)
		for j := range dims {
			dims[j] = j
		}
		psum := data.SumOver(pq, dims)
		eachKernel(func(impl string) {
			for _, strict := range []bool{false, true} {
				noStop := BlocksAnyDominator(bs, pq, psum, strict, false, &tally)
				withStop := BlocksAnyDominator(bs, pq, psum, strict, true, &tally)
				if noStop != withStop {
					t.Fatalf("trial %d %s strict=%v: stop point changed verdict: %v vs %v", trial, impl, strict, withStop, noStop)
				}
			}
		})
		data.PutBlockSet(bs)
	}
	tally.Flush()
}

// dupThenDominator is a two-word block for pq = (1, 1): word 1 holds 63
// exact duplicates of pq and one incomparable lane, word 2 incomparable lanes
// and, when withDominator, one lane that dominates pq but not strictly.
func dupThenDominator(withDominator bool) (*data.Block, []float32) {
	bs := data.NewBlockSet(2, 128)
	for i := 0; i < 128; i++ {
		p := []float32{0, 2}
		if i < 63 {
			p = []float32{1, 1}
		}
		if withDominator && i == 100 {
			p = []float32{1, 0}
		}
		bs.Append(p, int32(i), p[0]+p[1])
	}
	return bs.Blocks[0], []float32{1, 1}
}

// TestAnyDominatorInLooksPastDuplicates pins the scan's exit rule: a word
// whose ≤ lanes are all duplicates of the query does not end the scan, and a
// non-strict dominator answers only the non-strict question.
func TestAnyDominatorInLooksPastDuplicates(t *testing.T) {
	eachKernel(func(impl string) {
		for _, tc := range []struct {
			dominator, strict bool
			want              bool
		}{
			{true, false, true},
			{true, true, false},
			{false, false, false},
			{false, true, false},
		} {
			b, pq := dupThenDominator(tc.dominator)
			var tally KernelTally
			if got := AnyDominatorIn(b, pq, tc.strict, &tally); got != tc.want || tally.Sweeps != 2 {
				t.Errorf("%s dominator=%v strict=%v: %v after %d sweeps, want %v after 2",
					impl, tc.dominator, tc.strict, got, tally.Sweeps, tc.want)
			}
		}
	})
}

// TestKernelStatsNamesTheSweep: Impl follows the implementation in use.
func TestKernelStatsNamesTheSweep(t *testing.T) {
	eachKernel(func(impl string) {
		if got := KernelStats().Impl; got != impl {
			t.Errorf("KernelStats().Impl = %q with the %s sweeps on", got, impl)
		}
	})
}

func TestKernelTallyFlush(t *testing.T) {
	before := KernelStats()
	tally := KernelTally{Sweeps: 3, StopExits: 2}
	tally.Flush()
	if tally != (KernelTally{}) {
		t.Fatalf("tally not zeroed: %+v", tally)
	}
	after := KernelStats()
	if after.BlockSweeps-before.BlockSweeps != 3 ||
		after.StopPointExits-before.StopPointExits != 2 {
		t.Fatalf("counters did not advance: before %+v after %+v", before, after)
	}
}

// Satellite: the Compare length contract is a panic, not silent truncation.
func TestCompareLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compare on mismatched lengths should panic")
		}
	}()
	Compare([]float32{1, 2, 3}, []float32{1, 2})
}

// Satellite: aliasing is explicitly allowed — a point compared to itself is
// all-equal, never a dominator.
func TestCompareAliasing(t *testing.T) {
	p := []float32{1, 2, 3, 4}
	r := Compare(p, p)
	full := mask.Full(4)
	if r.Lt != 0 || r.Eq != full {
		t.Fatalf("Compare(p, p) = %+v", r)
	}
	if RelDominates(r, full) {
		t.Fatal("a point must not dominate itself")
	}
	// Overlapping subslices of the same backing array are also fine.
	r = Compare(p[:3], p[1:])
	if r.Lt != mask.Full(3) {
		t.Fatalf("overlapping compare: %+v", r)
	}
}
