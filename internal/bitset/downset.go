package bitset

import "math/bits"

// low[x] is the downset of x among the 6-bit masks: bit l is set iff l ⊆ x.
var low = func() (t [wordBits]uint64) {
	for x := range t {
		for l := 0; l <= x; l++ {
			if l&^x == 0 {
				t[x] |= 1 << uint(l)
			}
		}
	}
	return t
}()

// OrDownset sets in s, a set over subspaces (bit δ−1 for subspace δ), every
// non-empty δ ⊆ m that is not ⊆ e, leaving out the bits set in except, and
// returns how many of the bits it newly set are also set in count. except
// and count may be nil (nothing left out, nothing counted) and except may be
// s itself. m must be a subspace of s's space: m ≤ Len.
//
// This is how every dominance fact enters a subspace set — "dominated in m
// and all its submasks, save those inside e" — and a downset factors by
// word. Write δ = (h, l) with l = δ&63 and h = δ>>6: δ ⊆ m iff h ⊆ m>>6 and
// l ⊆ m&63. Indexed by δ, word h of the downset of m is therefore low[m&63]
// when h ⊆ m>>6 and empty otherwise, and taking out the downset of e touches
// only the words h ⊆ e>>6. Bit δ−1 sits one place below bit δ, so word h
// takes its pattern shifted right by one, and the pattern's lowest bit
// (δ = 64h) lands on bit 63 of word h−1. One call costs 2^popcount(m>>6)
// patterns — one word for up to six dimensions, at most 16 for ten — where a
// walk over the submasks costs 2^|m| bit tests.
func (s *Set) OrDownset(m, e uint32, except, count *Set) int {
	if m&^e == 0 {
		return 0 // every δ ⊆ m is ⊆ e
	}
	mh, eh := m>>6, e>>6
	inM, inE := low[m&63], low[e&63]
	added := 0
	for h := mh; ; h = (h - 1) & mh {
		pat := inM
		if h&^eh == 0 {
			pat &^= inE
		}
		added += s.orWord(int(h), pat>>1, except, count)
		if pat&1 != 0 {
			added += s.orWord(int(h)-1, 1<<63, except, count)
		}
		if h == 0 {
			return added
		}
	}
}

// orWord ORs pat &^ except into word w and counts the new bits inside count.
func (s *Set) orWord(w int, pat uint64, except, count *Set) int {
	if except != nil {
		pat &^= except.words[w]
	}
	pat &^= s.words[w]
	if pat == 0 {
		return 0
	}
	s.words[w] |= pat
	if count == nil {
		return 0
	}
	return bits.OnesCount64(pat & count.words[w])
}
