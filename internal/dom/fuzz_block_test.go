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
// monotonicity the stop point relies on is stressed across magnitudes, and
// maps an all-ones mantissa to the values a compare instruction could treat
// differently from Go's operators: ±0, the smallest and largest denormals and
// the smallest normal.
func fuzzVal(u uint16, grid int) float32 {
	if grid > 0 {
		return float32(int(u) % grid)
	}
	sign := uint32(u>>15) << 31
	if u&1023 == 1023 {
		mag := [4]uint32{0, 1, 0x007fffff, 0x00800000}[(u>>10)&3]
		return math.Float32frombits(sign | mag)
	}
	exp := uint32(112+(u>>10)&31) << 23
	mant := uint32(u&1023) << 13
	return math.Float32frombits(sign | exp | mant)
}

// The third header byte of a fuzz input: bit 0 is strict, the rest shape the
// block set around the same lanes.
const (
	fzStrict = 1 << 0
	// fzSizeShift: two bits index fuzzBlockSizes; 100 is not a multiple of 64
	// and must behave as 128.
	fzSizeShift = 1
	// fzStale: the set is filled with more, dominating lanes and Reset before
	// the real fill, so the unoccupied lanes of re-used blocks are stale.
	fzStale = 1 << 3
	// fzPoison: the unoccupied lanes of every block are then overwritten with
	// NaN, ±Inf and −MaxFloat32 bit patterns.
	fzPoison = 1 << 4
	// fzKillShift: two bits; 1 kills every third lane, 2 every lane that
	// dominates the query, 3 every lane that strictly dominates it.
	fzKillShift = 5
)

var fuzzBlockSizes = [4]int{64, 100, 128, 256}

// kernelSeed assembles a fuzz input: k columns, a grid (0 = continuous
// values), the flags above, then the query's and the lanes' 16-bit values.
func kernelSeed(k, grid int, flags byte, vals ...uint16) []byte {
	gridByte := byte(1) // odd: continuous
	if grid > 0 {
		gridByte = byte(grid - 2) // even grids 2…10 only: the target reads 2 + gridByte%9
	}
	raw := []byte{byte(k - 1), gridByte, flags}
	for _, v := range vals {
		raw = append(raw, byte(v), byte(v>>8))
	}
	return raw
}

// patternVals is n+1 points of k values each, cycling so that on a small grid
// the query (the first point) has dominators, duplicates and incomparables.
func patternVals(k, n int) []uint16 {
	vals := make([]uint16, 0, (n+1)*k)
	for j := 0; j < k; j++ {
		vals = append(vals, 2)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			vals = append(vals, uint16(i*7+j*3+i/5))
		}
	}
	return vals
}

// eachKernel runs f once per implementation of the kernels this build and
// CPU have: the Go loops always, the assembly where init detected it.
func eachKernel(f func(impl string)) {
	detected := useAVX2
	defer func() { useAVX2 = detected }() // runs on t.Fatal's Goexit too
	useAVX2 = false
	f("go")
	if detected {
		useAVX2 = true
		f("avx2")
	}
}

// FuzzBlockKernelEquivalence asserts that the block kernels — both
// implementations of the word sweeps, in one execution — are bit-for-bit
// equivalent to the scalar Compare loop on arbitrary blocks, whatever the
// unoccupied and killed lanes hold, and that stop-point termination never
// changes a verdict on sum-sorted sets.
func FuzzBlockKernelEquivalence(f *testing.F) {
	f.Add([]byte("\x03\x00\x01abcdefghijklmnopqrstuvwxyz0123456789"))
	f.Add([]byte("\x01\x05\x00AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"))
	f.Add([]byte("\x07\x02\x01the quick brown fox jumps over the lazy dog, twice over"))
	// A last word of 1, 63 and 64 lanes.
	for _, n := range []int{65, 127, 128} {
		f.Add(kernelSeed(2, 4, 0, patternVals(2, n)...))
		f.Add(kernelSeed(3, 4, fzStrict, patternVals(3, n)...))
	}
	// A pooled block re-used after a larger fill, then with NaN/±Inf in the
	// lanes nobody occupies; and both with a requested block size of 100.
	f.Add(kernelSeed(3, 4, fzStale, patternVals(3, 70)...))
	f.Add(kernelSeed(3, 4, fzStale|fzPoison|fzStrict, patternVals(3, 70)...))
	f.Add(kernelSeed(4, 6, fzPoison, patternVals(4, 9)...))
	f.Add(kernelSeed(2, 4, 1<<fzSizeShift|fzStale|fzPoison, patternVals(2, 150)...))
	// −0 against +0 (equal: neither dominates), and denormals around them.
	f.Add(kernelSeed(2, 0, 0,
		0x83ff, 0x03ff, // query (−0, +0)
		0x03ff, 0x83ff, // (+0, −0): a duplicate
		0x87ff, 0x03ff, // (−denormal, +0): dominates
		0x07ff, 0x0bff, // (min denormal, max denormal): dominated
		0x8bff, 0x8fff, // (−max denormal, −min normal): dominates strictly
	))
	f.Add(kernelSeed(2, 0, fzStrict, 0x07ff, 0x0fff, 0x03ff, 0x0bff, 0x83ff, 0x0fff, 0x07ff, 0x0fff))
	// Killed lanes that would have dominated.
	f.Add(kernelSeed(2, 4, 2<<fzKillShift, patternVals(2, 100)...))
	f.Add(kernelSeed(3, 4, 3<<fzKillShift|fzStrict, patternVals(3, 100)...))
	f.Add(kernelSeed(3, 6, 1<<fzKillShift|fzPoison, patternVals(3, 130)...))
	// One 128-lane block: 64 exact duplicates of the query fill word 1, and
	// word 2 holds a lane that dominates it, not strictly. The δ-sums tie in
	// float32 (2^16 + 1.5·2^-15 and 2^16 + 2^-15 both round to 2^16), so the
	// (δ-sum, row) order keeps the dominator after the duplicates.
	for _, flags := range []byte{2 << fzSizeShift, 2<<fzSizeShift | fzStrict} {
		vals := []uint16{0x7c00, 0x0200} // query (2^16, 1.5·2^-15)
		for i := 0; i < 64; i++ {
			vals = append(vals, 0x7c00, 0x0200)
		}
		f.Add(kernelSeed(2, 0, flags, append(vals, 0x7c00, 0x0000)...))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			return
		}
		k := 1 + int(raw[0]%8)
		grid := 0
		if raw[1]%2 == 0 {
			grid = 2 + int(raw[1]%9)
		}
		flags := raw[2]
		strict := flags&fzStrict != 0
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
		n := min(len(lanes)/k, 600)
		full := mask.Full(k)
		dims := make([]int, k)
		for j := range dims {
			dims[j] = j
		}

		// The set, filled by hand in (δ-sum, row) order so that the blocks of
		// the stale fill are the ones re-used.
		blockSize := fuzzBlockSizes[flags>>fzSizeShift&3]
		bs := data.NewBlockSet(k, blockSize)
		if flags&fzStale != 0 {
			junk := make([]float32, k)
			for j := range junk {
				junk[j] = -math.MaxFloat32
			}
			for i := 0; i < n+2*bs.BlockSize; i++ {
				bs.Append(junk, -1, float32(math.Inf(-1)))
			}
			bs.Reset()
		}
		sums := make([]float32, n)
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
			sums[i] = data.SumOver(lanes[i*k:(i+1)*k], dims)
		}
		for _, i := range data.SumOrder(sums, ids) {
			bs.Append(lanes[int(i)*k:(int(i)+1)*k], i, sums[i])
		}
		if bs.BlockSize%64 != 0 || bs.BlockSize < blockSize || bs.Len() != n {
			t.Fatalf("block size %d → %d, Len %d for %d lanes", blockSize, bs.BlockSize, bs.Len(), n)
		}
		buf := make([]float32, k)
		for _, b := range bs.Blocks {
			if b.MinSum() != sums[b.Rows[0]] {
				t.Fatalf("MinSum %v, first lane sums to %v", b.MinSum(), sums[b.Rows[0]])
			}
			if flags&fzPoison != 0 {
				poison := [4]uint32{0x7fc00000, 0xff800000, 0x7f800000, 0xff7fffff}
				for _, col := range b.Cols {
					for lane := b.N; lane < len(col); lane++ {
						col[lane] = math.Float32frombits(poison[lane&3])
					}
				}
			}
			for lane := 0; lane < b.N; lane++ {
				r := Compare(lanePoint(b, lane, buf), pq)
				switch flags >> fzKillShift & 3 {
				case 1:
					if lane%3 == 0 {
						b.Kill(lane)
					}
				case 2:
					if RelDominates(r, full) {
						b.Kill(lane)
					}
				case 3:
					if RelStrictlyDominates(r, full) {
						b.Kill(lane)
					}
				}
			}
		}

		want := scalarAnyDominator(bs, pq, strict)
		wantV := scalarVerdict(bs, pq)
		psum := data.SumOver(pq, dims)
		eachKernel(func(impl string) {
			var tally KernelTally
			if got := BlocksAnyDominator(bs, pq, 0, strict, false, &tally); got != want {
				t.Fatalf("%s AnyDominator: block %v, scalar %v", impl, got, want)
			}
			if got := BlocksAnyDominator(bs, pq, psum, strict, true, &tally); got != want {
				t.Fatalf("%s AnyDominator with stop point: block %v, scalar %v", impl, got, want)
			}
			// The fused verdict is the two any-dominator answers in one scan.
			if got := BlocksVerdict(bs, pq, &tally); got != wantV {
				t.Fatalf("%s BlocksVerdict: %v, scalar %v", impl, got, wantV)
			}
			// Word by word, dead and unoccupied lanes report 0 and the rest
			// what Compare says; and each word alone — the live lanes of one
			// word, every other word dead — answers as the scalar loop does.
			for _, b := range bs.Blocks {
				alive := make([]uint64, len(b.Alive))
				one := *b
				one.Alive = alive
				oneSet := &data.BlockSet{K: k, BlockSize: bs.BlockSize, Blocks: []*data.Block{&one}}
				for w := 0; w < (b.N+63)>>6; w++ {
					clear(alive)
					alive[w] = b.Alive[w]
					if got, want := AnyDominatorIn(&one, pq, strict, &tally), scalarAnyDominator(oneSet, pq, strict); got != want {
						t.Fatalf("%s AnyDominatorIn on word %d alone: %v, scalar %v", impl, w, got, want)
					}
					leq, lt := blockLeqWord(b, w, pq), StrictWord(b, w, pq)
					for i := 0; i < 64; i++ {
						lane := w<<6 + i
						var wantLeq, wantLt bool
						if lane < b.N && b.IsAlive(lane) {
							r := Compare(lanePoint(b, lane, buf), pq)
							wantLeq = r.Lt|r.Eq == full
							wantLt = RelStrictlyDominates(r, full)
						}
						gotLeq, gotLt := leq>>uint(i)&1 != 0, lt>>uint(i)&1 != 0
						if gotLeq != wantLeq || gotLt != wantLt {
							t.Fatalf("%s block word %d lane %d: leq %v strict %v, want %v %v",
								impl, w, i, gotLeq, gotLt, wantLeq, wantLt)
						}
					}
				}
			}
		})

		for _, b := range bs.Blocks {
			rel := make([]Rel, b.N)
			CompareBlock(b.Cols, 0, b.N, pq, rel)
			for lane := 0; lane < b.N; lane++ {
				if wr := Compare(lanePoint(b, lane, buf), pq); rel[lane] != wr {
					t.Fatalf("CompareBlock lane %d: %+v, want %+v", lane, rel[lane], wr)
				}
			}
		}
	})
}
