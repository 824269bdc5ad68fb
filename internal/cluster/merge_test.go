package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"skycube/internal/dom"
	"skycube/internal/mask"
)

func TestMergeSkylineFiltersDominated(t *testing.T) {
	delta := mask.Mask(0b11)
	cands := []candidate{
		{id: 5, point: []float32{1, 3, 9}},
		{id: 2, point: []float32{2, 2, 0}},
		{id: 9, point: []float32{3, 3, 0}}, // dominated by id 2 (and 5) in {0,1}
	}
	got := mergeSkyline(cands, delta, nil)
	want := []int32{2, 5}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("mergeSkyline = %v, want %v", got, want)
	}
}

func TestMergeSkylineKeepsTies(t *testing.T) {
	// Definition-1 dominance: equal projections do not dominate each other,
	// so duplicate coordinates must all survive the merge.
	delta := mask.Mask(0b01)
	cands := []candidate{
		{id: 1, point: []float32{1, 9}},
		{id: 7, point: []float32{1, 2}},
	}
	got := mergeSkyline(cands, delta, nil)
	if len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Fatalf("mergeSkyline dropped a tie: %v", got)
	}
}

func TestMergeSkylineDedupsSameID(t *testing.T) {
	delta := mask.Mask(0b1)
	cands := []candidate{
		{id: 3, point: []float32{1}},
		{id: 3, point: []float32{1}}, // a shard answer delivered twice
	}
	got := mergeSkyline(cands, delta, nil)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("mergeSkyline = %v, want [3]", got)
	}
}

func TestMergeSkylineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(4)
		n := 1 + rng.Intn(60)
		delta := mask.Mask(1 + rng.Intn(1<<uint(d)-1))
		cands := make([]candidate, n)
		for i := range cands {
			p := make([]float32, d)
			for j := range p {
				p[j] = float32(rng.Intn(5)) // small domain forces ties
			}
			cands[i] = candidate{id: int32(i), point: p}
		}
		got := mergeSkyline(append([]candidate(nil), cands...), delta, nil)
		inGot := map[int32]bool{}
		for _, id := range got {
			inGot[id] = true
		}
		for i, c := range cands {
			dominated := false
			for j, q := range cands {
				if i != j && dom.DominatesIn(q.point, c.point, delta) {
					dominated = true
					break
				}
			}
			if dominated == inGot[c.id] {
				t.Fatalf("trial %d: id %d dominated=%v but in merge output=%v",
					trial, c.id, dominated, inGot[c.id])
			}
		}
	}
}

// gridPoint draws one point on a coarse grid, so ties and exact dominance are
// common.
func gridPoint(rng *rand.Rand, d int) []float32 {
	p := make([]float32, d)
	for j := range p {
		p[j] = float32(rng.Intn(16)) / 8
	}
	return p
}

// TestMergeSkylineKernelAblation pins the coordinator's final merge filter:
// its block and scalar forms, called directly past the gate on unions of
// sizes and widths on both sides of the gate's thresholds, return identical
// id slices — and so does the gated entry point on the same union shuffled
// and with duplicate deliveries, as shard replies arrive. The merge probes a
// complete sum-sorted set, so — unlike a build's window filters — its scans
// do end at stop points.
func TestMergeSkylineKernelAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	stopsBefore := dom.KernelStats().StopPointExits
	for trial := 0; trial < 60; trial++ {
		n := []int{8, 63, 64, 65, 200, 300, 700}[trial%7]
		d := 2 + rng.Intn(5)
		uniq := make([]candidate, n)
		for i := range uniq {
			uniq[i] = candidate{id: int32(i), point: gridPoint(rng, d)}
		}
		delta := mask.Mask(1 + rng.Intn(1<<uint(d)-1))
		want := mergeSkylineScalar(uniq, delta, nil)
		if got := mergeSkylineBlocks(uniq, delta, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d d=%d δ=%b): blocks %v, scalar %v", trial, n, d, delta, got, want)
		}
		cands := append([]candidate(nil), uniq...)
		for i := 0; i < n/8; i++ {
			cands = append(cands, uniq[rng.Intn(n)])
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		if got := mergeSkyline(cands, delta, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d d=%d δ=%b): gated %v, scalar %v", trial, n, d, delta, got, want)
		}
	}
	if dom.KernelStats().StopPointExits == stopsBefore {
		t.Fatal("no merge scan ended at a stop point: useStop is dead where it is passed true")
	}
}
