// Package bitset provides the fixed-size bitsets that back the per-point
// solution masks B_{p∉S} and B_{p∉S⁺} of the MDMC template (paper §4.3) and
// the HashCube words (paper App. B.1).
//
// A Set over 2^d − 1 subspaces indexes bit δ−1 for subspace δ (the empty
// subspace δ = 0 is never used, matching the paper's right-shift by one).
// Dominance facts enter such a set a downset at a time, by whole words
// (OrDownset).
package bitset

import (
	"fmt"
	"math/bits"
)

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

// All reports whether every addressable bit is set. It reads the words only
// up to the first one with a clear bit.
func (s *Set) All() bool {
	full := s.n / wordBits
	for _, w := range s.words[:full] {
		if w != ^uint64(0) {
			return false
		}
	}
	rem := s.n % wordBits
	return rem == 0 || s.words[full] == 1<<uint(rem)-1
}

// Empty reports whether no bit is set. It reads the words only up to the
// first one with a set bit.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
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

// OrNot sets s to s ∪ ¬t: every addressable bit clear in t is set in s.
// Both sets must have the same length.
func (s *Set) OrNot(t *Set) {
	for i, w := range t.words {
		s.words[i] |= ^w
	}
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= 1<<uint(rem) - 1
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

const hexDigits = "0123456789abcdef"

// Hex renders s as a hexadecimal number in which bit i is worth 2^i, without
// leading zeros: "0" for the empty set, at most ⌈n/4⌉ digits otherwise.
// ParseHex reads it back.
func (s *Set) Hex() string {
	top := len(s.words) - 1
	for top >= 0 && s.words[top] == 0 {
		top--
	}
	if top < 0 {
		return "0"
	}
	out := make([]byte, 0, (top+1)*16)
	for i := top; i >= 0; i-- {
		for sh := 60; sh >= 0; sh -= 4 {
			if d := s.words[i] >> uint(sh) & 15; d != 0 || len(out) > 0 {
				out = append(out, hexDigits[d])
			}
		}
	}
	return string(out)
}

// ParseHex returns the n-bit set that Hex rendered as h. It fails on an empty
// string, a byte that is not a hex digit, and a set bit at n or above.
func ParseHex(h string, n int) (*Set, error) {
	if h == "" {
		return nil, fmt.Errorf("bitset: empty hex set")
	}
	s := New(n)
	for k := 0; k < len(h); k++ {
		c := h[len(h)-1-k]
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c && c <= 'f':
			d = uint64(c-'a') + 10
		case 'A' <= c && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return nil, fmt.Errorf("bitset: %q is not a hex number", h)
		}
		if d == 0 {
			continue
		}
		if i := 4*k + bits.Len64(d) - 1; i >= n {
			return nil, fmt.Errorf("bitset: hex set %q has bit %d, beyond its %d bits", h, i, n)
		}
		s.words[4*k/wordBits] |= d << uint(4*k%wordBits)
	}
	return s, nil
}
