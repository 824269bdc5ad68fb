package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"skycube"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// The merge's contract is stated over what shards actually ship: each frame
// is a subset of its shard's local S_δ. So every test here partitions a point
// set, takes each part's local skyline by the O(n²) Definition-1 loop, puts
// it through the wire encoding and the production decoder, merges, and
// compares with the same O(n²) loop run over ALL points (bruteSkyline) — an
// oracle that shares no code with the merge.

// localFrame returns the frame a shard storing exactly the given members
// would answer for δ: their brute-force local S_δ, encoded and decoded again.
func localFrame(t testing.TB, ids []int32, point func(int32) []float32, delta mask.Mask) *cuboidFrame {
	t.Helper()
	var kept []int32
	for _, id := range ids {
		dominated := false
		for _, other := range ids {
			if other != id && dom.DominatesIn(point(other), point(id), delta) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, id)
		}
	}
	wire := encodeCuboidFrame(delta, 7, kept, func(i int) []float32 { return point(kept[i]) })
	got, err := decodeCuboidFrame(wire, delta)
	if err != nil {
		t.Fatalf("decode of a fresh frame: %v", err)
	}
	checkFrameShape(t, got, delta, len(wire))
	return got
}

// assignShard places point i on one of k shards: round-robin, or skewed so
// that shard 0 stores every second point and the rest share the others.
func assignShard(i, k int, skewed bool) int {
	if !skewed || k == 1 {
		return i % k
	}
	if i%2 == 0 {
		return 0
	}
	return 1 + (i/2)%(k-1)
}

// mergeParts merges the local frames of the given parts (ids into points) and
// fails unless the result is the brute-force skyline of all the points.
func mergeParts(t *testing.T, parts [][]int32, points map[int32][]float32, delta mask.Mask, nilEmpty bool) mergeStats {
	t.Helper()
	frames := make([]*cuboidFrame, len(parts))
	for s, ids := range parts {
		frames[s] = localFrame(t, ids, func(id int32) []float32 { return points[id] }, delta)
		if nilEmpty && len(frames[s].ids) == 0 {
			frames[s] = nil // a skipped shard is a nil frame, an empty one ships zero lanes
		}
	}
	got, st := mergeFrames(frames, delta)
	if want := bruteSkyline(points, delta); !equalIDs(got, want) {
		t.Fatalf("δ=%b over %d parts: merge %v, brute force %v", delta, len(parts), got, want)
	}
	return st
}

func TestMergeSkylineFiltersDominated(t *testing.T) {
	points := map[int32][]float32{
		5: {1, 3, 9},
		2: {2, 2, 0},
		9: {3, 3, 0}, // dominated by ids 2 and 5 in {0,1}, which live elsewhere
	}
	delta := mask.Mask(0b11)
	mergeParts(t, [][]int32{{5}, {9}, {2}}, points, delta, false)
	got, _ := mergeFrames([]*cuboidFrame{
		localFrame(t, []int32{5, 2}, func(id int32) []float32 { return points[id] }, delta),
		localFrame(t, []int32{9}, func(id int32) []float32 { return points[id] }, delta),
	}, delta)
	if !equalIDs(got, []int32{2, 5}) {
		t.Fatalf("merge = %v, want [2 5]", got)
	}
}

func TestMergeSkylineKeepsTies(t *testing.T) {
	// Definition-1 dominance: equal projections do not dominate each other,
	// so equal points under distinct ids all survive — on one shard or two.
	points := map[int32][]float32{1: {1, 9}, 7: {1, 2}, 4: {1, 5}}
	for _, parts := range [][][]int32{{{1, 7, 4}}, {{1}, {7, 4}}, {{1}, {7}, {4}}} {
		mergeParts(t, parts, points, mask.Mask(0b01), false)
	}
}

// TestMergeSkylineDedupsSameID: between a split's map swap and its prune,
// parent and child both store — and ship — the copied rows. Identical points
// never dominate each other, so both copies survive or neither does, and the
// output names the id once.
func TestMergeSkylineDedupsSameID(t *testing.T) {
	points := map[int32][]float32{3: {1, 4}, 8: {4, 1}, 6: {5, 5}}
	delta := mask.Mask(0b11)
	// id 3 lives on two shards; 6 is dominated by both copies (and by 8).
	got, _ := mergeFrames([]*cuboidFrame{
		localFrame(t, []int32{3, 8}, func(id int32) []float32 { return points[id] }, delta),
		localFrame(t, []int32{3}, func(id int32) []float32 { return points[id] }, delta),
		localFrame(t, []int32{6}, func(id int32) []float32 { return points[id] }, delta),
	}, delta)
	if !equalIDs(got, []int32{3, 8}) {
		t.Fatalf("merge = %v, want [3 8]", got)
	}
	// Both copies of 6 ship, and both die to the third shard's members.
	mergeParts(t, [][]int32{{6}, {6}, {3, 8}}, points, delta, false)
	// Nothing but the two copies: both survive, named once.
	mergeParts(t, [][]int32{{3}, {3}}, points, mask.Mask(0b01), false)
}

// TestMergeSkylineMatchesBruteForce runs the partition → local skylines →
// frames → merge pipeline against the brute-force skyline of all points over
// A/I/C data, d = 2…8, K = 1…5, round-robin and skewed placement, every δ at
// d ≤ 4 (the full space and six random δ above), with a quarter of the
// points duplicated under fresh ids, a few rows stored on two shards, one
// shard emptied every third case, and empty frames passed both as zero-lane
// frames and as nil.
func TestMergeSkylineMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := []skycube.Distribution{skycube.Anticorrelated, skycube.Independent, skycube.Correlated}
	trial := 0
	for _, dist := range dists {
		for d := 2; d <= 8; d++ {
			for k := 1; k <= 5; k++ {
				for _, skewed := range []bool{false, true} {
					trial++
					ds := skycube.GenerateSynthetic(dist, 90, d, int64(1000*d+k))
					points := map[int32][]float32{}
					parts := make([][]int32, k)
					place := func(id int32, s int) { parts[s] = append(parts[s], id) }
					for i := 0; i < ds.Len(); i++ {
						points[int32(i)] = ds.Point(i)
						place(int32(i), assignShard(i, k, skewed))
					}
					for i := 0; i < ds.Len()/4; i++ { // equal points, distinct ids
						id := int32(ds.Len() + i)
						points[id] = ds.Point(rng.Intn(ds.Len()))
						place(id, rng.Intn(k))
					}
					if k > 1 {
						for i := 0; i < 6; i++ { // rows stored on two shards
							s := rng.Intn(k)
							id := parts[s][rng.Intn(len(parts[s]))]
							if other := (s + 1) % k; !slices.Contains(parts[other], id) {
								place(id, other)
							}
						}
						if trial%3 == 0 { // one shard stores nothing
							for _, id := range parts[k-1] {
								if !slices.Contains(parts[0], id) {
									place(id, 0)
								}
							}
							parts[k-1] = nil
						}
					}
					var deltas []mask.Mask
					if d <= 4 {
						deltas = mask.Subspaces(d)
					} else {
						deltas = []mask.Mask{mask.Full(d)}
						for i := 0; i < 6; i++ {
							deltas = append(deltas, mask.Mask(1+rng.Intn(1<<uint(d)-1)))
						}
					}
					for _, delta := range deltas {
						mergeParts(t, parts, points, delta, trial%2 == 0)
					}
				}
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

// TestMergeSkylineKernelAblation pins what the merge's two lemmas buy and
// that neither costs exactness, on unions whose label groups fall on both
// sides of one 64-lane verdict word: the answer is the brute-force skyline
// whatever the placement; a single shard's frame is accepted without one
// sweep (foreign-only); labels rule out probes, and the probes that run end
// at stop points — the merge probes complete sum-ordered groups, so, unlike a
// build's window filters, its scans do stop early.
func TestMergeSkylineKernelAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	stopsBefore := dom.KernelStats().StopPointExits
	var labelSkips, sweeps uint64
	for trial := 0; trial < 60; trial++ {
		n := []int{8, 63, 64, 65, 200, 300, 700}[trial%7]
		d := 2 + rng.Intn(5)
		k := 1 + trial%4
		points := map[int32][]float32{}
		parts := make([][]int32, k)
		for i := 0; i < n; i++ {
			if trial%2 == 0 {
				points[int32(i)] = gridPoint(rng, d)
			} else {
				p := make([]float32, d)
				for j := range p {
					p[j] = rng.Float32()
				}
				points[int32(i)] = p
			}
			s := assignShard(i, k, trial%3 == 0)
			parts[s] = append(parts[s], int32(i))
		}
		delta := mask.Mask(1 + rng.Intn(1<<uint(d)-1))
		st := mergeParts(t, parts, points, delta, false)
		if k == 1 && (st.sweeps != 0 || st.groups != 0) {
			t.Fatalf("trial %d: one shard's local skyline cost %d sweeps over %d groups, want none", trial, st.sweeps, st.groups)
		}
		labelSkips += st.labelSkips
		sweeps += st.sweeps
	}
	if labelSkips == 0 || sweeps == 0 {
		t.Fatalf("labels ruled out %d probes and %d sweeps ran: the matrix exercises neither", labelSkips, sweeps)
	}
	if dom.KernelStats().StopPointExits == stopsBefore {
		t.Fatal("no merge scan ended at a stop point: useStop is dead where it is passed true")
	}
}

// TestMergeStatsString pins the rendering EvMerge's Detail carries into
// ?explain=1 and /trace/query.
func TestMergeStatsString(t *testing.T) {
	got := fmt.Sprint(mergeStats{cands: 9, groups: 3, labelSkips: 4, sweeps: 5})
	if got != "groups=3 label_skips=4 sweeps=5" {
		t.Fatalf("mergeStats renders as %q", got)
	}
}
