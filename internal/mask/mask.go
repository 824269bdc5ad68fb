// Package mask implements the subspace-bitmask algebra used throughout the
// skycube algorithms (paper §2.1).
//
// A subspace of a d-dimensional data space is represented by a bitmask δ of
// type Mask in which bit i is set iff the subspace includes dimension i.
// Valid non-empty subspaces are 1 ≤ δ < 2^d. The same representation is used
// for per-dimension point relationships (B_{p<q}, B_{p=q}, …) and for the
// path labels of the static partitioning tree.
package mask

import "math/bits"

// MaxDims is the largest supported dimensionality. The paper evaluates up to
// d = 16; masks are stored as 32-bit words, so anything ≤ 32 works, but the
// per-point solution bitmasks (2^d − 1 bits) make d much beyond 20
// impractical.
const MaxDims = 20

// Mask is a subspace or per-dimension relationship bitmask over ≤ MaxDims
// dimensions.
type Mask = uint32

// Full returns the mask with the d low bits set: the full data space.
func Full(d int) Mask {
	return Mask(1)<<uint(d) - 1
}

// Bit returns the mask containing only dimension i.
func Bit(i int) Mask {
	return Mask(1) << uint(i)
}

// Count returns |δ|, the number of active dimensions in δ.
func Count(m Mask) int {
	return bits.OnesCount32(m)
}

// Contains reports whether δ′ is a subspace of δ, i.e. (δ & δ′) == δ′.
func Contains(delta, sub Mask) bool {
	return delta&sub == sub
}

// NumSubspaces returns 2^d − 1, the number of non-empty subspaces of a
// d-dimensional space.
func NumSubspaces(d int) int {
	return (1 << uint(d)) - 1
}

// Subspaces returns every non-empty subspace of the d-dimensional space in
// ascending numeric order: 1, 2, …, 2^d − 1.
func Subspaces(d int) []Mask {
	out := make([]Mask, NumSubspaces(d))
	for i := range out {
		out[i] = Mask(i + 1)
	}
	return out
}

// Level returns all subspaces δ with |δ| = l over d dimensions, in ascending
// numeric order. It enumerates the C(d, l) masks directly using Gosper's
// hack rather than filtering all 2^d masks.
func Level(d, l int) []Mask {
	if l <= 0 || l > d {
		return nil
	}
	out := make([]Mask, 0, binomial(d, l))
	v := Full(l) // smallest mask with l bits set
	limit := Mask(1) << uint(d)
	for v < limit {
		out = append(out, v)
		// Gosper's hack: next mask with the same popcount.
		c := v & -v
		r := v + c
		v = (((r ^ v) >> 2) / c) | r
	}
	return out
}

// Levels returns the lattice layers from top (|δ| = d) to bottom (|δ| = 1):
// Levels(d)[0] is the single full-space mask and Levels(d)[d−1] the d
// singleton subspaces. This is the traversal order of the top-down
// lattice-based algorithms.
func Levels(d int) [][]Mask {
	out := make([][]Mask, d)
	for l := d; l >= 1; l-- {
		out[d-l] = Level(d, l)
	}
	return out
}

// Parents returns the immediate superspaces of δ within d dimensions: every
// mask obtained by setting exactly one unset bit of δ.
func Parents(delta Mask, d int) []Mask {
	missing := Full(d) &^ delta
	out := make([]Mask, 0, Count(missing))
	for missing != 0 {
		b := missing & -missing
		out = append(out, delta|b)
		missing &^= b
	}
	return out
}

// Children returns the immediate subspaces of δ: every non-empty mask
// obtained by clearing exactly one set bit of δ.
func Children(delta Mask) []Mask {
	out := make([]Mask, 0, Count(delta))
	rem := delta
	for rem != 0 {
		b := rem & -rem
		if c := delta &^ b; c != 0 {
			out = append(out, c)
		}
		rem &^= b
	}
	return out
}

// Project compacts the dimensions selected by δ into the low bits of m:
// bit j of the result is bit i of m where i is the j'th set dimension of δ.
// Used when re-partitioning data on only the relevant dimensions.
func Project(m, delta Mask) Mask {
	var out Mask
	j := 0
	for rem := delta; rem != 0; rem &^= rem & -rem {
		i := bits.TrailingZeros32(rem)
		if m&(1<<uint(i)) != 0 {
			out |= 1 << uint(j)
		}
		j++
	}
	return out
}

// Dims returns the indices of the set dimensions of δ in ascending order.
func Dims(delta Mask) []int {
	out := make([]int, 0, Count(delta))
	for rem := delta; rem != 0; rem &^= rem & -rem {
		out = append(out, bits.TrailingZeros32(rem))
	}
	return out
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

// Binomial returns C(n, k), the width of lattice level k over n dimensions.
func Binomial(n, k int) int {
	return binomial(n, k)
}
