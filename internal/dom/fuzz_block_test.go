package dom

import (
	"math"
	"testing"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// fuzzVal maps 16 bits to a finite float32. Grid mode collapses values onto
// a few levels so ties and exact dominance are common; continuous mode
// spreads sign, exponent (2^-15..2^16) and mantissa so the float32-sum
// monotonicity the stop point relies on is stressed across magnitudes.
func fuzzVal(u uint16, grid int) float32 {
	if grid > 0 {
		return float32(int(u) % grid)
	}
	sign := uint32(u>>15) << 31
	exp := uint32(112+(u>>10)&31) << 23
	mant := uint32(u&1023) << 13
	return math.Float32frombits(sign | exp | mant)
}

// FuzzBlockKernelEquivalence asserts the block kernels are bit-for-bit
// equivalent to the scalar Compare loop on arbitrary blocks, and that
// stop-point termination never changes a verdict on sum-sorted sets.
func FuzzBlockKernelEquivalence(f *testing.F) {
	f.Add([]byte("\x03\x00\x01abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte("\x01\x05\x00AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"))
	f.Add([]byte("\x07\x02\x01the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			return
		}
		k := 1 + int(raw[0]%8)
		grid := 0
		if raw[1]%2 == 0 {
			grid = 2 + int(raw[1]%9)
		}
		strict := raw[2]%2 == 1
		body := raw[3:]
		nvals := len(body) / 2
		if nvals < 2*k {
			return
		}
		vals := make([]float32, nvals)
		for i := range vals {
			vals[i] = fuzzVal(uint16(body[2*i])|uint16(body[2*i+1])<<8, grid)
		}
		pq := vals[:k]
		lanes := vals[k:]
		n := len(lanes) / k
		if n == 0 {
			return
		}
		if n > 600 {
			n = 600
		}
		rows := make([][]float32, n)
		for i := range rows {
			rows[i] = lanes[i*k : (i+1)*k]
		}
		ds := data.FromRows(rows)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		dims := make([]int, k)
		for j := range dims {
			dims[j] = j
		}
		bs := data.SortedBlocksOf(ds, ids, dims, 64)
		defer data.PutBlockSet(bs)

		var tally KernelTally
		full := mask.Full(k)
		want := false
		buf := make([]float32, k)
		for i := 0; i < n; i++ {
			r := Compare(ds.Point(i), pq)
			ok := RelDominates(r, full)
			if strict {
				ok = RelStrictlyDominates(r, full)
			}
			if ok {
				want = true
				break
			}
		}
		if got := BlocksAnyDominator(bs, pq, 0, strict, false, &tally); got != want {
			t.Fatalf("AnyDominator: block %v, scalar %v", got, want)
		}
		psum := data.SumOver(pq, dims)
		if got := BlocksAnyDominator(bs, pq, psum, strict, true, &tally); got != want {
			t.Fatalf("AnyDominator with stop point: block %v, scalar %v", got, want)
		}

		// The fused verdict is the two any-dominator answers in one scan.
		wantV := Undominated
		for i := 0; i < n; i++ {
			if r := Compare(ds.Point(i), pq); RelStrictlyDominates(r, full) {
				wantV = StrictlyDominated
				break
			} else if RelDominates(r, full) {
				wantV = Dominated
			}
		}
		if got := BlocksVerdict(bs, pq, &tally); got != wantV {
			t.Fatalf("BlocksVerdict: %v, scalar %v", got, wantV)
		}

		out := make([]uint64, 1)
		for _, b := range bs.Blocks {
			DominatedBitmap(b, pq, strict, out, &tally)
			rel := make([]Rel, b.N)
			CompareBlock(b.Cols, 0, b.N, pq, rel)
			for lane := 0; lane < b.N; lane++ {
				q := lanePoint(b, lane, buf)
				if wr := Compare(q, pq); rel[lane] != wr {
					t.Fatalf("CompareBlock lane %d: %+v, want %+v", lane, rel[lane], wr)
				}
				r := Compare(pq, q)
				wantBit := RelDominates(r, full)
				if strict {
					wantBit = RelStrictlyDominates(r, full)
				}
				if gotBit := out[lane>>6]&(1<<uint(lane&63)) != 0; gotBit != wantBit {
					t.Fatalf("DominatedBitmap lane %d: %v, want %v", lane, gotBit, wantBit)
				}
			}
		}
	})
}
