package dom

import (
	"math"
	"testing"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// The third header byte of a RelWord fuzz input.
const (
	// frKillShift: two bits; 1 kills every third lane, 2 every lane that
	// dominates the query in the full space, 3 every lane equal to it on
	// column 0.
	frKillShift = 0
	// frStale: the set is filled with more lanes and Reset before the real
	// fill, so the unoccupied lanes of re-used blocks hold stale values.
	frStale = 1 << 2
	// frPoison: the unoccupied lanes of every block are then overwritten with
	// NaN, ±Inf and −MaxFloat32 bit patterns.
	frPoison = 1 << 3
)

// FuzzRelWordEquivalence holds both implementations of RelWord — the
// assembly and the Go loop, in one execution — to masks built lane by lane
// from Compare, for k = 1 … mask.MaxDims columns, on every word of blocks
// whose last word is short, whose dead and unoccupied lanes hold anything,
// and whose values tie, straddle ±0 and run through the denormals. It also
// holds WordDominators, the reading of the masks in a subspace δ, to
// RelDominates, lane by lane, for subspaces the input picks.
func FuzzRelWordEquivalence(f *testing.F) {
	// The two update shapes, k = 4 and k = 6, on a tie-heavy grid and on
	// continuous values, with a last word of 1, 63 and 64 lanes.
	for _, k := range []int{4, 6} {
		for _, n := range []int{65, 127, 128} {
			f.Add(kernelSeed(k, 4, 0, patternVals(k, n)...))
		}
		f.Add(kernelSeed(k, 0, frStale|frPoison, patternVals(k, 90)...))
		f.Add(kernelSeed(k, 6, 1<<frKillShift|frPoison, patternVals(k, 130)...))
		f.Add(kernelSeed(k, 4, 2<<frKillShift|frStale, patternVals(k, 100)...))
		f.Add(kernelSeed(k, 4, 3<<frKillShift, patternVals(k, 70)...))
	}
	// One column, and mask.MaxDims of them.
	f.Add(kernelSeed(1, 4, 0, patternVals(1, 200)...))
	f.Add(kernelSeed(mask.MaxDims, 4, frPoison, patternVals(mask.MaxDims, 66)...))
	// −0 against +0 (equal on both predicates), and denormals around them.
	f.Add(kernelSeed(2, 0, 0,
		0x83ff, 0x03ff, // query (−0, +0)
		0x03ff, 0x83ff, // (+0, −0): a duplicate
		0x87ff, 0x03ff, // (−denormal, +0): below on column 0
		0x07ff, 0x0bff, // (min denormal, max denormal): above on both
		0x8bff, 0x8fff, // (−max denormal, −min normal): below on both
	))

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			return
		}
		k := 1 + int(raw[0])%mask.MaxDims
		grid := 0
		if raw[1]%2 == 0 {
			grid = 2 + int(raw[1]%9)
		}
		flags := raw[2]
		body := raw[3:]
		vals := make([]float32, len(body)/2)
		if len(vals) < 2*k {
			return
		}
		for i := range vals {
			vals[i] = fuzzVal(uint16(body[2*i])|uint16(body[2*i+1])<<8, grid)
		}
		pq, lanes := vals[:k], vals[k:]
		n := min(len(lanes)/k, 400)
		full := mask.Full(k)

		bs := data.NewBlockSet(k, 128)
		if flags&frStale != 0 {
			junk := make([]float32, k)
			for j := range junk {
				junk[j] = -math.MaxFloat32
			}
			for i := 0; i < n+bs.BlockSize; i++ {
				bs.Append(junk, -1, 0)
			}
			bs.Reset()
		}
		for i := 0; i < n; i++ {
			bs.Append(lanes[i*k:(i+1)*k], int32(i), 0)
		}
		buf := make([]float32, k)
		for _, b := range bs.Blocks {
			if flags&frPoison != 0 {
				poison := [4]uint32{0x7fc00000, 0xff800000, 0x7f800000, 0xff7fffff}
				for _, col := range b.Cols {
					for lane := b.N; lane < len(col); lane++ {
						col[lane] = math.Float32frombits(poison[lane&3])
					}
				}
			}
			for lane := 0; lane < b.N; lane++ {
				switch flags >> frKillShift & 3 {
				case 1:
					if lane%3 == 0 {
						b.Kill(lane)
					}
				case 2:
					if RelDominates(Compare(lanePoint(b, lane, buf), pq), full) {
						b.Kill(lane)
					}
				case 3:
					if b.Cols[0][lane] == pq[0] {
						b.Kill(lane)
					}
				}
			}
		}

		// The subspaces the masks are read in: the full space, each column
		// alone, and a few the input picks.
		deltas := []mask.Mask{full}
		for j := 0; j < k; j++ {
			deltas = append(deltas, mask.Mask(1)<<uint(j))
		}
		for i := 0; i+3 < len(body) && len(deltas) < k+9; i += 3 {
			if delta := (mask.Mask(body[i]) | mask.Mask(body[i+1])<<8 | mask.Mask(body[i+2])<<16) & full; delta != 0 {
				deltas = append(deltas, delta)
			}
		}

		for _, b := range bs.Blocks {
			for w := 0; w < (b.N+63)>>6; w++ {
				wantLeq, wantLt := make([]uint64, k), make([]uint64, k)
				rels := make([]Rel, 64)
				live := uint64(0)
				for i := 0; i < 64; i++ {
					lane := w<<6 + i
					if lane >= b.N || !b.IsAlive(lane) {
						continue
					}
					live |= 1 << uint(i)
					rels[i] = Compare(lanePoint(b, lane, buf), pq)
					for j := 0; j < k; j++ {
						if (rels[i].Lt|rels[i].Eq)>>uint(j)&1 != 0 {
							wantLeq[j] |= 1 << uint(i)
						}
						if rels[i].Lt>>uint(j)&1 != 0 {
							wantLt[j] |= 1 << uint(i)
						}
					}
				}
				eachKernel(func(impl string) {
					// One word past k on each side: RelWord writes k and no more.
					leq, lt := make([]uint64, k+1), make([]uint64, k+1)
					for j := range leq {
						leq[j], lt[j] = 0xdead, 0xbeef
					}
					RelWord(b, w, pq, leq, lt)
					if leq[k] != 0xdead || lt[k] != 0xbeef {
						t.Fatalf("%s k=%d word %d: wrote past column k", impl, k, w)
					}
					for j := 0; j < k; j++ {
						if leq[j] != wantLeq[j] || lt[j] != wantLt[j] {
							t.Fatalf("%s k=%d word %d column %d: leq %#016x lt %#016x, Compare says %#016x %#016x",
								impl, k, w, j, leq[j], lt[j], wantLeq[j], wantLt[j])
						}
					}
					for _, delta := range deltas {
						lanes := WordDominators(leq, lt, delta)
						for i := 0; i < 64; i++ {
							got := lanes>>uint(i)&1 != 0
							want := live>>uint(i)&1 != 0 && RelDominates(rels[i], delta)
							if got != want {
								t.Fatalf("%s k=%d word %d lane %d δ=%b: masks say dominates=%v, RelDominates %v",
									impl, k, w, i, delta, got, want)
							}
						}
					}
				})
			}
		}
	})
}
