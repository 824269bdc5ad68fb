// Package bitset provides the fixed-size bitsets that back the per-point
// solution masks B_{p∉S} and B_{p∉S⁺} of the MDMC template (paper §4.3) and
// the HashCube words (paper App. B.1).
//
// A Set over 2^d − 1 subspaces indexes bit δ−1 for subspace δ (the empty
// subspace δ = 0 is never used, matching the paper's right-shift by one).
// Dominance facts enter such a set a downset at a time, by whole words
// (OrDownset).
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-size bitset. The zero value of a Set with no words is
// empty; use New to allocate capacity.
type Set struct {
	words []uint64
	n     int // number of addressable bits
}

// New returns a Set able to hold n bits, all initially unset.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// View returns a Set of n bits over existing words (⌈n/64⌉ of them, bits
// beyond n zero) without copying: writes through either are seen by both.
func View(words []uint64, n int) *Set { return &Set{words: words, n: n} }

// Len returns the number of addressable bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear unsets bit i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset unsets every bit, retaining capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every addressable bit.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = 1<<uint(rem) - 1
	}
}

// All reports whether every addressable bit is set.
func (s *Set) All() bool {
	return s.Count() == s.n
}

// Or sets s to s ∪ t. Both sets must have the same length.
func (s *Set) Or(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// AndNot sets s to s \ t. Both sets must have the same length.
func (s *Set) AndNot(t *Set) {
	for i, w := range t.words {
		s.words[i] &^= w
	}
}

// CopyFrom overwrites s with the contents of t (same length required).
func (s *Set) CopyFrom(t *Set) {
	copy(s.words, t.words)
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// NextClear returns the index of the first unset bit ≥ from, or -1 if every
// bit in [from, Len) is set: a walk over it lists the subspaces a point is a
// skyline member of.
func (s *Set) NextClear(from int) int {
	if from >= s.n {
		return -1
	}
	wi := from / wordBits
	// Mask off bits below `from` in the first word by treating them as set.
	w := ^s.words[wi] &^ (1<<uint(from%wordBits) - 1)
	for {
		if w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			if i >= s.n {
				return -1
			}
			return i
		}
		wi++
		if wi >= len(s.words) {
			return -1
		}
		w = ^s.words[wi]
	}
}

// Words64 exposes the backing words (read-only by convention).
func (s *Set) Words64() []uint64 { return s.words }
