package hashcube

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skycube/internal/bitset"
	"skycube/internal/mask"
)

// Property: for arbitrary non-membership bitmasks, retrieval inverts
// insertion exactly — Skyline(δ) returns id iff bit δ−1 was unset — and
// Membership(id) is the exact complement list. The masks go in as one chunk.
func TestQuickInsertRetrieveRoundTrip(t *testing.T) {
	f := func(masks []uint64, d8 uint8) bool {
		d := int(d8%5) + 2 // 2..6 dims → 1 or 2 words
		total := mask.NumSubspaces(d)
		h := New(d)
		want := make(map[mask.Mask][]int32) // subspace → member ids
		var ids []int32
		var rows []uint64
		for id, m := range masks {
			b := bitset.New(total)
			for bit := 0; bit < total; bit++ {
				if m&(1<<uint(bit%64)) != 0 && (bit+id)%3 != 0 {
					b.Set(bit)
				}
			}
			ids, rows = append(ids, int32(id)), append(rows, b.Words64()...)
			for delta := mask.Mask(1); int(delta) <= total; delta++ {
				if !b.Test(int(delta) - 1) {
					want[delta] = append(want[delta], int32(id))
				}
			}
		}
		h.Insert(ids, rows)
		for delta := mask.Mask(1); int(delta) <= total; delta++ {
			if got := h.Skyline(delta); !reflect.DeepEqual(got, want[delta]) {
				return false
			}
		}
		// Membership must be the transpose of the skyline listings.
		member := make(map[int32][]mask.Mask)
		for delta := mask.Mask(1); int(delta) <= total; delta++ {
			for _, id := range want[delta] {
				member[id] = append(member[id], delta)
			}
		}
		for id := range masks {
			if got := h.Membership(int32(id)); !reflect.DeepEqual(got, member[int32(id)]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, rng *rand.Rand) {
			masks := make([]uint64, 1+rng.Intn(30))
			for i := range masks {
				masks[i] = rng.Uint64()
			}
			v[0] = reflect.ValueOf(masks)
			v[1] = reflect.ValueOf(uint8(rng.Intn(256)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: IDCount never exceeds ids × words, and equals the sum of all
// per-subspace listings' transposed storage.
func TestQuickIDCountBounds(t *testing.T) {
	f := func(masks []uint16) bool {
		const d = 4 // 15 subspaces → 1 word
		h := New(d)
		for id, m := range masks {
			b := bitset.New(15)
			for bit := 0; bit < 15; bit++ {
				if m&(1<<uint(bit)) != 0 {
					b.Set(bit)
				}
			}
			h.Insert([]int32{int32(id)}, b.Words64())
		}
		count := h.IDCount()
		if count > len(masks) {
			return false // one word → at most one entry per id
		}
		// Ids with all 15 bits set are omitted entirely.
		omitted := 0
		for _, m := range masks {
			if m&0x7fff == 0x7fff {
				omitted++
			}
		}
		return count == len(masks)-omitted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
