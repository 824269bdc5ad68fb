package hashcube

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"skycube/internal/bitset"
	"skycube/internal/mask"
)

// buildFlightCube constructs the HashCube of Figure 1b: the flight skycube
// with d = 3, stored from each point's B_{p∉S}.
func buildFlightCube() *HashCube {
	h := New(3)
	// Non-membership masks derived from Figure 1a (bit δ−1 set iff ∉ S_δ).
	notIn := map[int32][]mask.Mask{
		0: {1, 2, 3},             // f0 ∉ S1,S2,S3
		1: {1, 2, 4},             // f1 ∉ S1,S2,S4
		2: {2, 4, 6},             // f2 ∉ S2,S4,S6
		3: {1, 4, 5},             // f3 ∉ S1,S4,S5
		4: {1, 2, 3, 4, 5, 6, 7}, // f4 dominated everywhere
	}
	for id, deltas := range notIn {
		b := bitset.New(mask.NumSubspaces(3))
		for _, d := range deltas {
			b.Set(int(d - 1))
		}
		h.Insert(id, b)
	}
	return h
}

var flightSkylines = map[mask.Mask][]int32{
	0b100: {0}, 0b010: {3}, 0b001: {2},
	0b101: {0, 1, 2}, 0b110: {0, 1, 3}, 0b011: {1, 2, 3},
	0b111: {0, 1, 2, 3},
}

func TestFlightCubeRetrieval(t *testing.T) {
	h := buildFlightCube()
	for delta, want := range flightSkylines {
		if got := h.Skyline(delta); !reflect.DeepEqual(got, want) {
			t.Errorf("S_%03b = %v, want %v", delta, got, want)
		}
	}
}

func TestFullyDominatedPointNotStored(t *testing.T) {
	h := buildFlightCube()
	// f4 is dominated in all 7 subspaces of the single word, so it must not
	// be stored at all.
	if got := h.IDCount(); got != 4 {
		t.Errorf("IDCount = %d, want 4 (f4 omitted)", got)
	}
}

func TestSkylineOutOfRange(t *testing.T) {
	h := New(3)
	if h.Skyline(0) != nil {
		t.Error("Skyline(0) should be nil")
	}
	if h.Skyline(8) != nil {
		t.Error("Skyline(2^d) should be nil")
	}
}

func TestMultiWordCube(t *testing.T) {
	// d = 6 → 63 subspaces → 2 words. A point dominated in all of word 0's
	// subspaces but none of word 1's must be stored only under word 1.
	h := New(6)
	b := bitset.New(63)
	for i := 0; i < 32; i++ {
		b.Set(i)
	}
	h.Insert(7, b)
	if got := h.Skyline(1); len(got) != 0 {
		t.Errorf("S_1 = %v, want empty", got)
	}
	if got := h.Skyline(33); !reflect.DeepEqual(got, []int32{7}) {
		t.Errorf("S_33 = %v, want [7]", got)
	}
	if got := h.IDCount(); got != 1 {
		t.Errorf("IDCount = %d, want 1", got)
	}
	keys := h.Keys()
	if keys[0] != 0 || keys[1] != 1 {
		t.Errorf("Keys = %v, want [0 1]", keys)
	}
}

func TestLastWordPartialWidth(t *testing.T) {
	// d = 6: word 1 covers subspaces 33..63, i.e. 31 bits. A point
	// dominated in subspaces 33..63 has a full *partial* word and must be
	// omitted from word 1.
	h := New(6)
	b := bitset.New(63)
	for i := 32; i < 63; i++ {
		b.Set(i)
	}
	h.Insert(3, b)
	if got := h.Skyline(40); len(got) != 0 {
		t.Errorf("S_40 = %v, want empty", got)
	}
	if got := h.Skyline(1); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("S_1 = %v, want [3]", got)
	}
	if got := h.IDCount(); got != 1 {
		t.Errorf("IDCount = %d, want 1 (partial word omitted)", got)
	}
}

func TestConcurrentInsert(t *testing.T) {
	// MDMC inserts asynchronously from many tasks.
	const n = 500
	h := New(4)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int32) {
			defer wg.Done()
			b := bitset.New(15)
			// Even ids in every skyline; odd ids dominated in δ=1 only.
			if id%2 == 1 {
				b.Set(0)
			}
			h.Insert(id, b)
		}(int32(i))
	}
	wg.Wait()
	s1 := h.Skyline(1)
	if len(s1) != n/2 {
		t.Fatalf("S_1 has %d ids, want %d", len(s1), n/2)
	}
	s2 := h.Skyline(2)
	if len(s2) != n {
		t.Fatalf("S_2 has %d ids, want %d", len(s2), n)
	}
	for i := 1; i < len(s2); i++ {
		if s2[i-1] >= s2[i] {
			t.Fatal("Skyline ids not sorted")
		}
	}
}

// TestRowMasks holds the per-row accessor against Membership where the word
// layouts differ: d = 3 (one partial 32-bit word), d = 6 (two 32-bit words in
// one 64) and d = 7 (multi-word, partial last), with rows that are never
// inserted and rows dominated everywhere.
func TestRowMasks(t *testing.T) {
	for _, d := range []int{3, 6, 7} {
		total := mask.NumSubspaces(d)
		rng := rand.New(rand.NewSource(int64(d)))
		const n = 40
		h := New(d)
		for id := int32(0); id < n; id++ {
			b := bitset.New(total)
			switch id % 4 {
			case 0: // never inserted
				continue
			case 1: // dominated everywhere: inserted, stored nowhere
				b.Fill()
			default:
				for bit := 0; bit < total; bit++ {
					if rng.Intn(3) > 0 {
						b.Set(bit)
					}
				}
			}
			h.Insert(id, b)
		}
		words, stride := h.RowMasks(n)
		if want := (total + 63) / 64; stride != want || len(words) != n*want {
			t.Fatalf("d=%d: stride %d over %d words, want %d over %d", d, stride, len(words), want, n*want)
		}
		for id := int32(0); id < n; id++ {
			row := bitset.View(words[int(id)*stride:][:stride], total)
			var got []mask.Mask
			for b := row.NextClear(0); b >= 0; b = row.NextClear(b + 1) {
				got = append(got, mask.Mask(b+1))
			}
			if want := h.Membership(id); !reflect.DeepEqual(got, want) {
				t.Errorf("d=%d row %d: clear bits %v, Membership %v", d, id, got, want)
			}
			if row.Count()+len(got) != total {
				t.Errorf("d=%d row %d: %d bits set beyond the %d subspaces", d, id, row.Count()+len(got)-total, total)
			}
		}
	}
}
