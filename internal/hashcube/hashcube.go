// Package hashcube implements the HashCube skycube representation (paper
// Fig. 1b and Appendix B.1): each point p is represented by its bitmask
// B_{p∉S} — bit δ−1 set iff p is dominated in subspace δ — split into
// 32-bit words that are hashed independently. A point id is therefore
// stored at most once per 32 subspaces, giving up to 32-fold compression
// over the lattice, and insertion is by point, which matches MDMC's
// point-parallel tasks: each chunk of tasks asynchronously inserts its
// finished bitmasks.
package hashcube

import (
	"slices"
	"sync"

	"skycube/internal/bitset"
	"skycube/internal/mask"
)

// WordBits is w, the subspace group width.
const WordBits = 32

// HashCube is a skycube stored as per-word hash tables from word value to
// the ids sharing it. Safe for concurrent Insert.
type HashCube struct {
	D     int
	words []wordTable
}

type wordTable struct {
	mu sync.Mutex
	m  map[uint32][]int32
}

// New returns an empty HashCube over d dimensions.
func New(d int) *HashCube {
	nWords := (mask.NumSubspaces(d) + WordBits - 1) / WordBits
	h := &HashCube{D: d, words: make([]wordTable, nWords)}
	for i := range h.words {
		h.words[i].m = make(map[uint32][]int32)
	}
	return h
}

// Stride is the number of 64-bit words of one point's non-membership bitmask
// in bitset.Set's layout: the row width of Insert and RowMasks.
func (h *HashCube) Stride() int { return (mask.NumSubspaces(h.D) + 63) / 64 }

// Insert records points ids[i] with non-membership bitmask rows[i·Stride :
// (i+1)·Stride] (bit δ−1 set iff the point ∉ S_δ, bitset.Set's layout, bits
// past 2^d − 1 clear), taking each word table's lock once for the whole
// chunk. Fully-dominated words (all bits set) are not stored at all — those
// points are recoverable from no skyline in that word's group, which is the
// HashCube's compression trick.
func (h *HashCube) Insert(ids []int32, rows []uint64) {
	stride := h.Stride()
	if len(rows) != len(ids)*stride {
		panic("hashcube: Insert needs one row of Stride words per id")
	}
	for w := range h.words {
		full, shift := h.fullWordMask(w), uint(w%2)*WordBits
		t := &h.words[w]
		t.mu.Lock()
		for i, id := range ids {
			if key := uint32(rows[i*stride+w/2] >> shift); key != full {
				t.m[key] = append(t.m[key], id)
			}
		}
		t.mu.Unlock()
	}
}

// fullWordMask returns the all-dominated key for word w, accounting for the
// final word covering fewer than 32 subspaces.
func (h *HashCube) fullWordMask(w int) uint32 {
	total := mask.NumSubspaces(h.D)
	bitsInWord := total - w*WordBits
	if bitsInWord >= WordBits {
		return ^uint32(0)
	}
	return 1<<uint(bitsInWord) - 1
}

// Skyline reconstructs S_δ: the concatenation of the id lists of every key
// of word (δ−1)/32 whose bit (δ−1)%32 is *unset* (the point is not
// dominated in δ). Ids are returned sorted ascending.
func (h *HashCube) Skyline(delta mask.Mask) []int32 {
	if delta == 0 || int(delta) > mask.NumSubspaces(h.D) {
		return nil
	}
	w := int(delta-1) / WordBits
	bit := uint32(1) << uint(int(delta-1)%WordBits)
	t := &h.words[w]
	t.mu.Lock()
	var out []int32
	for key, ids := range t.m {
		if key&bit == 0 {
			out = append(out, ids...)
		}
	}
	t.mu.Unlock()
	slices.Sort(out)
	return out
}

// Membership returns the subspaces in which point id is a skyline member,
// ascending. This is the HashCube's native query direction (App. B.1: the
// HashCube is defined with respect to each point, the lattice with respect
// to each subspace): the id's key in each word names its non-memberships
// for 32 subspaces at once. Points that were never inserted — fully
// dominated everywhere — yield nil.
func (h *HashCube) Membership(id int32) []mask.Mask {
	var out []mask.Mask
	total := mask.NumSubspaces(h.D)
	for w := range h.words {
		t := &h.words[w]
		t.mu.Lock()
		var key uint32
		found := false
		for k, ids := range t.m {
			for _, v := range ids {
				if v == id {
					key = k
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		t.mu.Unlock()
		if !found {
			// Absent from this word: dominated in all of its subspaces.
			continue
		}
		base := w * WordBits
		for b := 0; b < WordBits && base+b < total; b++ {
			if key&(1<<uint(b)) == 0 {
				out = append(out, mask.Mask(base+b+1))
			}
		}
	}
	return out
}

// RowMasks returns B_{p∉S} of rows [0, n) as one flat slice, stride words
// per row in bitset.Set's layout (wrap a row with bitset.View): one pass over
// the tables instead of one Membership scan per row. A row absent from a
// word's table — never inserted, or fully dominated there — reads all ones
// in that word, so every row's mask is exact.
func (h *HashCube) RowMasks(n int) (words []uint64, stride int) {
	full := bitset.New(mask.NumSubspaces(h.D))
	full.Fill()
	stride = h.Stride()
	words = make([]uint64, n*stride)
	for r := 0; r < n; r++ {
		copy(words[r*stride:], full.Words64())
	}
	for w := range h.words {
		t := &h.words[w]
		shift := uint(w%2) * WordBits
		t.mu.Lock()
		for key, ids := range t.m {
			members := uint64(h.fullWordMask(w)&^key) << shift
			for _, id := range ids {
				words[int(id)*stride+w/2] &^= members
			}
		}
		t.mu.Unlock()
	}
	return words, stride
}

// IDCount returns the total number of stored ids — the HashCube's
// space measure, comparable with Lattice.IDCount.
func (h *HashCube) IDCount() int {
	total := 0
	for w := range h.words {
		t := &h.words[w]
		t.mu.Lock()
		for _, ids := range t.m {
			total += len(ids)
		}
		t.mu.Unlock()
	}
	return total
}

// Keys returns the number of distinct hash keys per word, a diagnostic for
// the compression analysis.
func (h *HashCube) Keys() []int {
	out := make([]int, len(h.words))
	for w := range h.words {
		t := &h.words[w]
		t.mu.Lock()
		out[w] = len(t.m)
		t.mu.Unlock()
	}
	return out
}
