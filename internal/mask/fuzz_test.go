package mask

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"skycube/internal/bitset"
)

// FuzzMaskSubspaces checks the structural invariants of the subspace
// bitmask algebra for arbitrary masks: SubmasksOf enumerates every
// non-empty submask exactly once in descending order, Parents/Children are
// exact level neighbours, Project compacts onto the low bits, and Dims
// round-trips.
func FuzzMaskSubspaces(f *testing.F) {
	f.Add(uint8(1), uint32(1))
	f.Add(uint8(4), uint32(0b1011))
	f.Add(uint8(6), uint32(0b111111))
	f.Add(uint8(12), uint32(0xACE))
	f.Add(uint8(3), uint32(0))
	f.Fuzz(func(t *testing.T, dRaw uint8, mRaw uint32) {
		d := 1 + int(dRaw)%12 // ≤ 4096 submasks per exec
		m := Mask(mRaw) & Full(d)

		if got := Count(m); got != bits.OnesCount32(m) {
			t.Fatalf("Count(%b) = %d, want %d", m, got, bits.OnesCount32(m))
		}

		// SubmasksOf: descending, exactly once, all ⊆ m, none empty, and
		// exactly 2^|m| − 1 of them.
		seen := map[Mask]bool{}
		prev := Mask(0)
		first := true
		SubmasksOf(m, func(s Mask) bool {
			if s == 0 {
				t.Fatal("empty submask enumerated")
			}
			if !Contains(m, s) {
				t.Fatalf("submask %b ⊄ %b", s, m)
			}
			if !first && s >= prev {
				t.Fatalf("submasks not descending: %b after %b", s, prev)
			}
			if seen[s] {
				t.Fatalf("submask %b enumerated twice", s)
			}
			seen[s] = true
			prev, first = s, false
			return true
		})
		if want := (1 << uint(Count(m))) - 1; len(seen) != want {
			t.Fatalf("enumerated %d submasks of %b, want %d", len(seen), m, want)
		}

		// Early stop: the callback returning false enumerates exactly one.
		calls := 0
		SubmasksOf(m, func(Mask) bool { calls++; return false })
		if m != 0 && calls != 1 {
			t.Fatalf("early stop made %d calls", calls)
		}

		if m == 0 {
			return
		}

		// Parents: one per unset dimension, each a superset one level up.
		parents := Parents(m, d)
		if len(parents) != d-Count(m) {
			t.Fatalf("|Parents(%b)| = %d, want %d", m, len(parents), d-Count(m))
		}
		for _, p := range parents {
			if !Contains(p, m) || Count(p) != Count(m)+1 {
				t.Fatalf("parent %b of %b is not one level up", p, m)
			}
		}

		// Children: one per set dimension, each a subset one level down.
		children := Children(m)
		wantKids := Count(m)
		if Count(m) == 1 {
			wantKids = 0 // the empty subspace is not a cuboid
		}
		if len(children) != wantKids {
			t.Fatalf("|Children(%b)| = %d, want %d", m, len(children), wantKids)
		}
		for _, c := range children {
			if !Contains(m, c) || Count(c) != Count(m)-1 {
				t.Fatalf("child %b of %b is not one level down", c, m)
			}
		}

		// Project: m projected onto itself fills the low Count(m) bits; any
		// projection stays within them and preserves popcount of m∩δ.
		if got, want := Project(m, m), Full(Count(m)); got != want {
			t.Fatalf("Project(%b, itself) = %b, want %b", m, got, want)
		}
		delta := Mask(mRaw>>7) & Full(d)
		proj := Project(m, delta)
		if proj&^Full(Count(delta)) != 0 {
			t.Fatalf("Project(%b, %b) = %b overflows %d low bits", m, delta, proj, Count(delta))
		}
		if Count(proj) != Count(m&delta) {
			t.Fatalf("Project(%b, %b) lost bits: %b", m, delta, proj)
		}

		// Dims round-trips through Bit.
		var rebuilt Mask
		for _, i := range Dims(m) {
			rebuilt |= Bit(i)
		}
		if rebuilt != m {
			t.Fatalf("Dims(%b) rebuilt to %b", m, rebuilt)
		}
	})
}

// FuzzDownset holds the word-parallel bitset.OrDownset to the bit-by-bit
// loops it replaced, over sequences of updates on two sets of one space:
// the SubmasksOf walk of MDMC's Solution (no except set; the return value is
// what Solution subtracts from its remaining count, here under a level
// bound) and the NextClear walk of delta's teach (an except set, which may
// be the destination itself). After every update the sets must agree word
// for word — so the partial word below six dimensions and the unused top bit
// above stay clear — and so must the counts.
func FuzzDownset(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 0, 0, 0})
	f.Add(uint8(3), uint8(1), []byte{9, 0b1011, 0, 0b0010, 0, 2, 0b1111, 0, 0b0101, 0})
	f.Add(uint8(5), uint8(5), []byte{7, 0x3f, 0, 0x15, 0, 4, 0x2a, 0, 0x2a, 0, 1, 0x3f, 0, 0, 0})
	f.Add(uint8(7), uint8(2), []byte{3, 0xff, 0, 0x0f, 0, 0, 0xc0, 0, 0x40, 0, 5, 0xff, 0, 0xc0, 0})
	f.Add(uint8(11), uint8(6), []byte{1, 0xff, 0x0f, 0xc0, 0x03, 2, 0x40, 0x08, 0, 0, 4, 0xce, 0x0a, 0xce, 0x02, 6, 0xff, 0x0f, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, dRaw, levelRaw uint8, ops []byte) {
		d := 1 + int(dRaw)%12
		maxLevel := 1 + int(levelRaw)%d
		n := NumSubspaces(d)
		relevant := bitset.New(n)
		for delta := 1; delta <= n; delta++ {
			if Count(Mask(delta)) <= maxLevel {
				relevant.Set(delta - 1)
			}
		}
		// Two sets, each as the word form and the reference maintain it; the
		// second starts from arbitrary bits, the shape of a teach source.
		var word, ref [2]*bitset.Set
		rng := rand.New(rand.NewSource(int64(len(ops))<<16 | int64(dRaw)<<8 | int64(levelRaw)))
		for i := range word {
			word[i], ref[i] = bitset.New(n), bitset.New(n)
		}
		for b := 0; b < n; b++ {
			if rng.Intn(2) == 0 {
				word[1].Set(b)
				ref[1].Set(b)
			}
		}
		for ; len(ops) >= 5; ops = ops[5:] {
			dst := int(ops[0] & 1)
			m := Mask(binary.LittleEndian.Uint16(ops[1:])) & Full(d)
			e := Mask(binary.LittleEndian.Uint16(ops[3:])) & Full(d)
			if ops[0]&8 == 0 {
				e &= m // the callers' shape; any e must work too
			}
			var got, want int
			if src := int(ops[0] >> 1 & 3); src < 2 {
				got = word[dst].OrDownset(m, e, word[src], relevant)
				for b := ref[src].NextClear(0); b >= 0; b = ref[src].NextClear(b + 1) {
					if delta := Mask(b + 1); delta&^m == 0 && delta&^e != 0 {
						if !ref[dst].Test(b) && relevant.Test(b) {
							want++
						}
						ref[dst].Set(b)
					}
				}
			} else {
				got = word[dst].OrDownset(m, e, nil, relevant)
				SubmasksOf(m, func(sub Mask) bool {
					if b := int(sub) - 1; sub&^e != 0 && !ref[dst].Test(b) {
						ref[dst].Set(b)
						if Count(sub) <= maxLevel {
							want++
						}
					}
					return true
				})
			}
			if got != want {
				t.Fatalf("d=%d level≤%d op %08b m=%b e=%b: %d new relevant bits, want %d", d, maxLevel, ops[0], m, e, got, want)
			}
			for i := range word {
				if !slices.Equal(word[i].Words64(), ref[i].Words64()) {
					t.Fatalf("d=%d op %08b m=%b e=%b: set %d is\n%x, want\n%x", d, ops[0], m, e, i, word[i].Words64(), ref[i].Words64())
				}
			}
		}
	})
}
