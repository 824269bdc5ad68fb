package lattice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
)

func flightData() *data.Dataset {
	return data.FromRows([][]float32{
		{12.20, 17, 120}, // f0
		{9.00, 12, 148},  // f1
		{8.20, 13, 169},  // f2
		{21.25, 3, 186},  // f3
		{21.25, 5, 196},  // f4
	})
}

func bnlCuboid(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
	res := skyline.Compute(ds, rows, delta, skyline.AlgoBNL, 1)
	return res.Skyline, res.ExtOnly
}

// Figure 1a ground truth.
var flightSkylines = map[mask.Mask][]int32{
	0b100: {0}, 0b010: {3}, 0b001: {2},
	0b101: {0, 1, 2}, 0b110: {0, 1, 3}, 0b011: {1, 2, 3},
	0b111: {0, 1, 2, 3},
}

func TestTopDownFlights(t *testing.T) {
	for _, threads := range []int{1, 3} {
		l := TopDown(flightData(), bnlCuboid, TopDownOptions{CuboidThreads: threads})
		for delta, want := range flightSkylines {
			if got := l.Skyline(delta); !reflect.DeepEqual(got, want) {
				t.Errorf("threads=%d: S_%03b = %v, want %v", threads, delta, got, want)
			}
		}
	}
}

func TestTopDownMatchesDirectComputation(t *testing.T) {
	// The reduced-input traversal must agree with computing each cuboid
	// from scratch on the full dataset.
	ds := gen.Synthetic(gen.Anticorrelated, 300, 5, 77)
	l := TopDown(ds, bnlCuboid, TopDownOptions{CuboidThreads: 4})
	for _, delta := range mask.Subspaces(5) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := l.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%05b: lattice %v != direct %v", delta, got, want.Skyline)
		}
		if got := l.ExtOnly[delta]; !reflect.DeepEqual(got, want.ExtOnly) {
			t.Errorf("δ=%05b: extOnly %v != direct %v", delta, got, want.ExtOnly)
		}
	}
}

func TestPartialSkycube(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 250, 6, 13)
	const maxLevel = 3
	l := TopDown(ds, bnlCuboid, TopDownOptions{CuboidThreads: 2, MaxLevel: maxLevel})
	if l.MaxLevel != maxLevel {
		t.Fatalf("MaxLevel = %d", l.MaxLevel)
	}
	for _, delta := range mask.Subspaces(6) {
		got := l.Skyline(delta)
		if mask.Count(delta) > maxLevel {
			if got != nil {
				t.Errorf("δ=%b above MaxLevel was materialised", delta)
			}
			continue
		}
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%06b: partial %v != direct %v", delta, got, want.Skyline)
		}
	}
}

func TestOnCuboidCallbackCountsAllCuboids(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 100, 4, 5)
	var count int64
	TopDown(ds, bnlCuboid, TopDownOptions{
		CuboidThreads: 3,
		OnCuboid:      func(mask.Mask) { atomic.AddInt64(&count, 1) },
	})
	if count != int64(mask.NumSubspaces(4)) {
		t.Errorf("callback fired %d times, want %d", count, mask.NumSubspaces(4))
	}
}

func TestMinParentPrefersSmallerExtendedSkyline(t *testing.T) {
	l := New(3)
	l.Sky[0b110] = []int32{1, 2, 3}
	l.ExtOnly[0b110] = []int32{4}
	l.Sky[0b011] = []int32{1}
	l.ExtOnly[0b011] = nil
	if got := l.MinParent(0b010); got != 0b011 {
		t.Errorf("MinParent(010) = %03b, want 011", got)
	}
}

func TestMinParentPanicsWithoutParents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(3).MinParent(0b001)
}

func TestIDCount(t *testing.T) {
	l := TopDown(flightData(), bnlCuboid, TopDownOptions{})
	// Figure 1a: ids stored 4 times each for the skylines (16 total), plus
	// extended-only entries (f4 in S⁺ of 011 and 111... count whatever the
	// traversal stored; just check it is ≥ the skyline total).
	skyTotal := 0
	for _, want := range flightSkylines {
		skyTotal += len(want)
	}
	if got := l.IDCount(); got < skyTotal {
		t.Errorf("IDCount = %d, want ≥ %d", got, skyTotal)
	}
	if got := l.ExtendedSize(0b011); got != 4 {
		t.Errorf("ExtendedSize(011) = %d, want 4", got)
	}
}

func TestMergeSorted(t *testing.T) {
	got := MergeSorted([]int32{1, 5, 9}, []int32{2, 5, 7})
	want := []int32{1, 2, 5, 5, 7, 9}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("MergeSorted = %v, want %v", got, want)
	}
	if got := MergeSorted(nil, []int32{3}); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("MergeSorted(nil, [3]) = %v", got)
	}
	if got := MergeSorted([]int32{3}, nil); !reflect.DeepEqual(got, []int32{3}) {
		t.Errorf("MergeSorted([3], nil) = %v", got)
	}
}

// hybridCuboid is the hook STSC and SDSC run.
func hybridCuboid(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
	res := skyline.Compute(ds, rows, delta, skyline.AlgoHybrid, 2)
	return res.Skyline, res.ExtOnly
}

func TestSiblingsShareOneInputThatIsNeverWritten(t *testing.T) {
	// A grid, so that S⁺ \ S is not empty and inputs are real merges.
	const d = 5
	pts := make([][]float32, 600)
	for i := range pts {
		pts[i] = make([]float32, d)
		for j := range pts[i] {
			pts[i][j] = float32((i*(j+3) + i/7) % 5)
		}
	}
	ds := data.FromRows(pts)
	for _, hook := range []CuboidFunc{bnlCuboid, hybridCuboid} {
		type call struct {
			delta      mask.Mask
			rows, copy []int32
		}
		var mu sync.Mutex
		var calls []call
		recording := func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
			mu.Lock()
			calls = append(calls, call{delta, rows, slices.Clone(rows)})
			mu.Unlock()
			return hook(ds, rows, delta)
		}
		l := TopDown(ds, recording, TopDownOptions{CuboidThreads: 3, LargestFirst: true})

		arrays := map[int]map[*int32]bool{} // level → distinct input arrays
		for _, c := range calls {
			if !slices.Equal(c.rows, c.copy) {
				t.Errorf("δ=%05b: the input was written during the traversal", c.delta)
			}
			level := mask.Count(c.delta)
			if arrays[level] == nil {
				arrays[level] = map[*int32]bool{}
			}
			arrays[level][&c.rows[0]] = true
			if level < d {
				p := l.MinParent(c.delta)
				if want := MergeSorted(l.Sky[p], l.ExtOnly[p]); !slices.Equal(c.rows, want) {
					t.Errorf("δ=%05b: input is not S⁺ of its smallest parent %05b", c.delta, p)
				}
			}
		}
		for level := 1; level < d; level++ {
			if got, parents := len(arrays[level]), len(mask.Level(d, level+1)); got > parents {
				t.Errorf("level %d: %d distinct inputs for %d parents", level, got, parents)
			}
		}
		if len(arrays[1]) >= len(mask.Level(d, 1)) && len(arrays[2]) >= len(mask.Level(d, 2)) {
			t.Error("no two siblings shared an input")
		}

		// The same lattice as when every cuboid gets an input of its own.
		private := TopDown(ds, func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
			return hook(ds, slices.Clone(rows), delta)
		}, TopDownOptions{})
		if !reflect.DeepEqual(l, private) {
			t.Error("sharing inputs changed the lattice")
		}
	}
}

func TestCuboidSpansCarryOutputSizesAndLabelDepth(t *testing.T) {
	const d = 4
	ds := gen.Synthetic(gen.Anticorrelated, 3000, d, 9)
	tr := obs.New()
	l := TopDown(ds, hybridCuboid, TopDownOptions{CuboidThreads: 2, Trace: tr})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Cat string
			Args      map[string]any // numbers, and the track names of metadata events
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	seen, depths := 0, map[int]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Cat != obs.CatCuboid {
			continue
		}
		var delta mask.Mask
		if _, err := fmt.Sscanf(ev.Name, "δ=%b", &delta); err != nil {
			t.Fatalf("span %q: %v", ev.Name, err)
		}
		seen++
		arg := func(key string) int {
			v, ok := ev.Args[key].(float64)
			if !ok {
				t.Errorf("%s: no %q in args %v", ev.Name, key, ev.Args)
			}
			return int(v)
		}
		if got, want := arg("sky"), len(l.Sky[delta]); got != want {
			t.Errorf("%s: sky = %d, want %d", ev.Name, got, want)
		}
		if got, want := arg("ext_only"), len(l.ExtOnly[delta]); got != want {
			t.Errorf("%s: ext_only = %d, want %d", ev.Name, got, want)
		}
		want := skyline.LabelDepth(arg("n"), mask.Count(delta))
		if got := arg("label_depth"); got != want {
			t.Errorf("%s: label_depth = %d, want %d", ev.Name, got, want)
		}
		if v, ok := ev.Args["threads"]; ok { // TopDown's plain hook takes no share
			t.Errorf("%s: threads = %v on a plain hook's span", ev.Name, v)
		}
		depths[want] = true
	}
	if seen != mask.NumSubspaces(d) {
		t.Errorf("%d cuboid spans, want %d", seen, mask.NumSubspaces(d))
	}
	if len(depths) < 2 {
		t.Errorf("label depths seen: %v, want more than one", depths)
	}
}

// A level's workers split the thread budget: a lone cuboid gets all of it,
// a level of at least that many cuboids one thread per cuboid, and the
// shares of the cuboids running at any moment are each at least one and sum
// to at most the budget.
func TestTopDownSharesALevelsThreads(t *testing.T) {
	for d := 2; d <= 5; d++ {
		ds := gen.Synthetic(gen.Anticorrelated, 200, d, int64(d))
		want := TopDown(ds, bnlCuboid, TopDownOptions{})
		for threads := 1; threads <= 5; threads++ {
			for _, maxLevel := range []int{d, d - 1} {
				var mu sync.Mutex
				got := map[mask.Mask]int{} // cuboid → its share
				running, peak := 0, 0      // the shares of the cuboids being computed
				hook := func(share int) CuboidFunc {
					return func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32) {
						mu.Lock()
						got[delta] = share
						running += share
						peak = max(peak, running)
						mu.Unlock()
						defer func() {
							mu.Lock()
							running -= share
							mu.Unlock()
						}()
						return bnlCuboid(ds, rows, delta)
					}
				}
				l := TopDownShared(ds, hook, TopDownOptions{CuboidThreads: threads, MaxLevel: maxLevel})
				name := fmt.Sprintf("d=%d threads=%d maxLevel=%d", d, threads, maxLevel)
				if peak > threads {
					t.Errorf("%s: concurrent shares summed to %d", name, peak)
				}
				top := maxLevel
				if maxLevel < d {
					top = d // S⁺(P), computed alone before level maxLevel
				}
				for delta, share := range got {
					level := mask.Count(delta)
					cuboids := len(mask.Level(d, level))
					switch {
					case share < 1:
						t.Errorf("%s: δ=%b got share %d", name, delta, share)
					case level == top && share != threads:
						t.Errorf("%s: lone cuboid δ=%b got %d threads, want %d", name, delta, share, threads)
					case cuboids >= threads && share != 1:
						t.Errorf("%s: δ=%b of a %d-cuboid level got %d threads, want 1", name, delta, cuboids, share)
					case !slices.Contains(Shares(threads, cuboids), share):
						t.Errorf("%s: δ=%b got share %d, not one of %v", name, delta, share, Shares(threads, cuboids))
					}
				}
				for delta := mask.Mask(1); int(delta) < len(l.Sky); delta++ {
					if mask.Count(delta) > maxLevel {
						continue
					}
					if !slices.Equal(l.Sky[delta], want.Sky[delta]) || !slices.Equal(l.ExtOnly[delta], want.ExtOnly[delta]) {
						t.Errorf("%s: δ=%b differs from the sequential traversal", name, delta)
					}
				}
			}
		}
	}
}

// Each cuboid runs as the worker idle longest, so the first cuboids of a
// level go to workers 0, 1, … in turn: every worker of a level with at least
// as many cuboids as workers computes one, however the goroutines are
// scheduled, and each cuboid's span is on its worker's track.
func TestTopDownWorkersAllGetWork(t *testing.T) {
	const d, workers = 5, 3
	ds := gen.Synthetic(gen.Independent, 300, d, 5)
	tr := obs.New()
	var mu sync.Mutex
	ran := map[mask.Mask]int{} // cuboid → worker
	l := TopDownWorkers(ds, func(w int) CuboidFunc {
		return func(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
			mu.Lock()
			ran[delta] = w
			mu.Unlock()
			return bnlCuboid(ds, rows, delta)
		}
	}, TopDownOptions{CuboidThreads: workers, Trace: tr, Track: Tracks("w")})
	if want := TopDown(ds, bnlCuboid, TopDownOptions{}); !reflect.DeepEqual(l, want) {
		t.Error("lattice differs from the sequential traversal")
	}
	for level := 1; level <= d; level++ {
		seen := map[int]bool{}
		for _, delta := range mask.Level(d, level) {
			seen[ran[delta]] = true
		}
		if want := min(workers, len(mask.Level(d, level))); len(seen) != want {
			t.Errorf("level %d: %d workers computed cuboids, want %d", level, len(seen), want)
		}
	}
	for _, s := range tr.Spans() {
		var delta mask.Mask
		if _, err := fmt.Sscanf(s.Name, "δ=%b", &delta); s.Cat != obs.CatCuboid || err != nil {
			continue
		}
		if want := fmt.Sprintf("w-%d", ran[delta]); s.Track != want {
			t.Errorf("δ=%b span on track %s, want %s", delta, s.Track, want)
		}
	}
}

func TestShares(t *testing.T) {
	for threads := 1; threads <= 9; threads++ {
		for cuboids := 1; cuboids <= 12; cuboids++ {
			s := Shares(threads, cuboids)
			if len(s) != min(threads, cuboids) {
				t.Errorf("Shares(%d, %d) = %v: %d workers", threads, cuboids, s, len(s))
			}
			sum := 0
			for i, v := range s {
				sum += v
				if v < threads/len(s) || v > threads/len(s)+1 || (i > 0 && v > s[i-1]) {
					t.Errorf("Shares(%d, %d) = %v", threads, cuboids, s)
				}
			}
			if sum != threads {
				t.Errorf("Shares(%d, %d) = %v sums to %d", threads, cuboids, s, sum)
			}
		}
	}
}
