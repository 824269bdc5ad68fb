package data

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// The two preprocessing jobs every sum-ordered, pivot-labelled skyline
// structure needs — per-dimension order statistics and the ascending
// (δ-sum, row) order — in linear time. Both reproduce what a full comparison
// sort would yield, value for value and index for index, so a caller that
// switches from a sort to these changes no pivot, label, tile or block.

// selectCutoff is the range length at and below which SelectRanks sorts the
// range instead of partitioning it further.
const selectCutoff = 16

// SelectRanks partially orders col in place so that, for every r in ranks,
// col[r] holds the value a full ascending sort of col would put there.
// ranks must be non-decreasing and within [0, len(col)). Expected time is
// linear in len(col): a median-of-three quickselect that descends only into
// ranges still holding a requested rank, with a fat pivot so duplicate-heavy
// and constant columns finish in one pass, and a depth bound past which the
// remaining range is sorted outright, keeping the worst case at
// O(n log n).
func SelectRanks(col []float32, ranks ...int) {
	selectRanks(col, 0, ranks, selectDepth(len(col)))
}

// selectDepth is the partition depth SelectRanks allows a column of length n.
func selectDepth(n int) int { return 2 * bits.Len(uint(n)) }

// selectRanks works on col = full[base:base+len(col)]; ranks index full. It
// returns the number of elements its partition passes scanned, at most
// len(col) per unit of limit.
func selectRanks(col []float32, base int, ranks []int, limit int) (scanned int) {
	for len(ranks) > 0 {
		n := len(col)
		if n <= selectCutoff || limit == 0 {
			slices.Sort(col)
			break
		}
		limit--
		scanned += n

		a, b, c := col[0], col[n/2], col[n-1]
		if b < a {
			a, b = b, a
		}
		if c < b {
			b = max(a, c)
		}
		// Fat partition around the pivot, one pass per boundary:
		// col[:lt] < pivot, col[lt:gt] == pivot, col[gt:] > pivot, compared
		// as order keys. Every element takes the same two stores and an
		// arithmetic 0-or-1 increment: no data-dependent branch, which on a
		// float comparison the compiler would emit and the CPU mispredict
		// every other time.
		pk := int64(orderKey(b))
		lt := 0
		for i, v := range col {
			col[i] = col[lt]
			col[lt] = v
			lt += int(uint64(int64(orderKey(v))-pk) >> 63) // key(v) < pk
		}
		gt := lt
		for i, v := range col[lt:] {
			col[lt+i] = col[gt]
			col[gt] = v
			gt += 1 - int(uint64(pk-int64(orderKey(v)))>>63) // !(pk < key(v))
		}

		// Ranks inside the pivot run are settled; the rest lie left or right.
		nl, _ := slices.BinarySearch(ranks, base+lt)
		nr, _ := slices.BinarySearch(ranks, base+gt)
		scanned += selectRanks(col[:lt], base, ranks[:nl], limit)
		col, base, ranks = col[gt:], base+gt, ranks[nr:]
	}
	return scanned
}

// orderKey maps a float32 to an int32 whose integer order agrees with <
// wherever < decides, and additionally puts −0 before +0.
func orderKey(v float32) int32 {
	b := int32(math.Float32bits(v))
	return b ^ b>>31&0x7fffffff // negatives: flip magnitude bits
}

// SumOrder returns the indices 0..len(sums)-1 ascending by (sums[i],
// rows[i]), full ties in index order — the permutation sort.SliceStable
// yields under the comparator
//
//	sums[a] != sums[b] ? sums[a] < sums[b] : rows[a] < rows[b]
//
// and therefore, when rows holds distinct ids, the one any comparison sort
// yields. −0 and +0 are one key, as they are under <. sums must not hold
// NaN (a float32 sum of finite coordinates cannot produce one).
//
// Time is linear: a stable LSD radix sort over the order-preserving bit
// image of each sum, skipping digits on which all keys agree. Stability
// alone orders an equal-sum run by row when rows ascends, the usual case;
// a run it does not is re-sorted by row.
func SumOrder(sums []float32, rows []int32) []int32 {
	ord := make([]int32, len(sums))
	SumOrderInto(ord, make([]uint64, 2*len(sums)), sums, rows)
	return ord
}

// SumOrderInto is SumOrder writing the order into ord (len(sums) entries)
// and sorting in scratch (at least 2·len(sums) words), so a caller that
// orders many inputs can reuse both.
func SumOrderInto(ord []int32, scratch []uint64, sums []float32, rows []int32) {
	n := len(sums)
	// cur[i] = key<<32 | index, so one word moves per element per pass.
	cur, tmp := scratch[:n:n], scratch[n:2*n]
	var hist [4][256]int32
	for i, s := range sums {
		if s == 0 {
			s = 0 // −0 and +0 are one key
		}
		b := uint32(orderKey(s)) ^ 1<<31 // signed order to unsigned
		cur[i] = uint64(b)<<32 | uint64(uint32(i))
		hist[0][b&0xff]++
		hist[1][b>>8&0xff]++
		hist[2][b>>16&0xff]++
		hist[3][b>>24]++
	}
	for pass := range hist {
		h := &hist[pass]
		shift := 32 + 8*uint(pass)
		if n > 0 && h[cur[0]>>shift&0xff] == int32(n) {
			continue // every key has this digit
		}
		var off int32
		for d, c := range h {
			h[d] = off
			off += c
		}
		for _, e := range cur {
			d := e >> shift & 0xff
			tmp[h[d]] = e
			h[d]++
		}
		cur, tmp = tmp, cur
	}

	for i, e := range cur {
		ord[i] = int32(uint32(e))
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		sorted := true
		for ; hi < n && cur[hi]>>32 == cur[lo]>>32; hi++ {
			sorted = sorted && rows[ord[hi-1]] <= rows[ord[hi]]
		}
		if !sorted {
			slices.SortStableFunc(ord[lo:hi], func(a, b int32) int {
				return cmp.Compare(rows[a], rows[b])
			})
		}
		lo = hi
	}
}
