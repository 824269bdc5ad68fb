package templates

import (
	"reflect"
	"testing"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/hashcube"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/qskycube"
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

var flightSkylines = map[mask.Mask][]int32{
	0b100: {0}, 0b010: {3}, 0b001: {2},
	0b101: {0, 1, 2}, 0b110: {0, 1, 3}, 0b011: {1, 2, 3},
	0b111: {0, 1, 2, 3},
}

// checkLattice compares every cuboid of l against direct BNL computation.
func checkLattice(t *testing.T, name string, ds *data.Dataset, l *lattice.Lattice, maxLevel int) {
	t.Helper()
	for _, delta := range mask.Subspaces(ds.Dims) {
		if maxLevel > 0 && mask.Count(delta) > maxLevel {
			continue
		}
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := l.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("%s: S_%b = %v, want %v", name, delta, got, want.Skyline)
		}
	}
}

// checkCube compares every cuboid of an MDMC HashCube against BNL.
func checkCube(t *testing.T, name string, ds *data.Dataset, cube *hashcube.HashCube, maxLevel int) {
	t.Helper()
	for _, delta := range mask.Subspaces(ds.Dims) {
		if maxLevel > 0 && mask.Count(delta) > maxLevel {
			continue
		}
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := cube.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("%s: S_%b = %v, want %v", name, delta, got, want.Skyline)
		}
	}
}

func TestSTSCFlights(t *testing.T) {
	l := STSC(flightData(), Options{Threads: 2})
	for delta, want := range flightSkylines {
		if got := l.Skyline(delta); !reflect.DeepEqual(got, want) {
			t.Errorf("S_%03b = %v, want %v", delta, got, want)
		}
	}
}

func TestMDMCFlights(t *testing.T) {
	res := MDMC(flightData(), MDMCOptions{Options: Options{Threads: 2}})
	for delta, want := range flightSkylines {
		if got := res.Cube.Skyline(delta); !reflect.DeepEqual(got, want) {
			t.Errorf("S_%03b = %v, want %v", delta, got, want)
		}
	}
	// f4 is in S⁺(P) (it ties f3 on arrival) so all five flights are tasks.
	if len(res.ExtRows) != 5 {
		t.Errorf("|S⁺(P)| = %d, want 5", len(res.ExtRows))
	}
}

func TestAllAlgorithmsAgreeAcrossDistributions(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.Anticorrelated} {
		ds := gen.Synthetic(dist, 400, 5, 3)
		name := dist.String()
		checkLattice(t, name+"/QSkycube", ds, qskycube.Build(ds, qskycube.Options{Threads: 1}), 0)
		checkLattice(t, name+"/PQSkycube", ds, qskycube.Build(ds, qskycube.Options{Threads: 4}), 0)
		checkLattice(t, name+"/STSC", ds, STSC(ds, Options{Threads: 4}), 0)
		checkLattice(t, name+"/SDSC", ds, SDSC(ds, Options{Threads: 4}), 0)
		checkCube(t, name+"/MDMC", ds, MDMC(ds, MDMCOptions{Options: Options{Threads: 4}}).Cube, 0)
	}
}

func TestMDMCHigherDimensional(t *testing.T) {
	ds := gen.Synthetic(gen.Anticorrelated, 300, 8, 11)
	res := MDMC(ds, MDMCOptions{Options: Options{Threads: 4}})
	// Spot-check a sample of subspaces (all 255 would be slow with BNL).
	for _, delta := range []mask.Mask{1, 0b10000000, 0b10101010, 0b1111, 0b11110000, mask.Full(8)} {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := res.Cube.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("S_%08b = %v, want %v", delta, got, want.Skyline)
		}
	}
}

func TestMDMCAblationsStayCorrect(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 250, 5, 17)
	variants := []struct {
		name string
		opt  MDMCOptions
	}{
		{"no-filter", MDMCOptions{DisableFilter: true}},
		{"no-memo", MDMCOptions{DisableMemo: true}},
		{"depth-2", MDMCOptions{TreeDepth: 2}},
		{"everything-off", MDMCOptions{DisableFilter: true, DisableMemo: true, TreeDepth: 2}},
	}
	for _, v := range variants {
		v.opt.Threads = 2
		checkCube(t, v.name, ds, MDMC(ds, v.opt).Cube, 0)
	}
}

// The filter reads the level its tree picks (DESIGN §5, decision 2): the leaf
// columns below two leaves per L2 node, the L2 columns from two on, and the
// L2 columns on a depth-2 tree. The first two inputs are the benchmark's wide
// and narrow build inputs (1.02 and 6.1 leaves per L2 node); the other two
// build a cube at each level and check it cuboid by cuboid.
func TestFilterLevelRule(t *testing.T) {
	for _, in := range []struct {
		name  string
		ds    *data.Dataset
		level int
		check bool
	}{
		{"I_d=8_n=5000", gen.Synthetic(gen.Independent, 5000, 8, 7), 3, false},
		{"A_d=4_n=200000", gen.Synthetic(gen.Anticorrelated, 200_000, 4, 7), 2, false},
		{"I_d=5_n=250", gen.Synthetic(gen.Independent, 250, 5, 17), 3, true},
		{"A_d=4_n=2000", gen.Synthetic(gen.Anticorrelated, 2000, 4, 7), 2, true},
	} {
		ctx := PrepareMDMC(in.ds, 2, 0, 0)
		ratio := float64(len(ctx.Tree.Leaves)) / float64(len(ctx.Tree.L2))
		if ctx.FilterLevel != in.level {
			t.Errorf("%s: %.2f leaves per L2 node, filter level %d, want %d", in.name, ratio, ctx.FilterLevel, in.level)
		}
		if in.check {
			RunMDMC(ctx, CPUPointKernel(MDMCOptions{}), 2, nil)
			checkCube(t, in.name, in.ds, ctx.Cube, 0)
		}
		if lv := PrepareMDMC(in.ds, 2, 2, 0).FilterLevel; lv != 2 {
			t.Errorf("%s: filter level %d on a depth-2 tree, want 2", in.name, lv)
		}
	}
}

// A task's state is two bitmasks of 2^d − 1 bits, each a whole number of
// bytes: at least one byte each, however small d. From d = 3 on, 2^d − 1 bits
// round up to 2^d / 8 bytes.
func TestStateBytes(t *testing.T) {
	for _, c := range []struct{ d, want int }{{1, 2}, {2, 2}, {3, 2}, {4, 4}} {
		if got := StateBytes(c.d); got != c.want {
			t.Errorf("StateBytes(%d) = %d, want %d", c.d, got, c.want)
		}
	}
	for d := 3; d <= 20; d++ {
		if got, want := StateBytes(d), 2*(1<<d/8); got != want {
			t.Errorf("StateBytes(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestPartialSkycubes(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 200, 6, 23)
	const d1 = 3
	l := STSC(ds, Options{Threads: 2, MaxLevel: d1})
	checkLattice(t, "STSC-partial", ds, l, d1)
	for _, delta := range mask.Subspaces(6) {
		if mask.Count(delta) > d1 && l.Skyline(delta) != nil {
			t.Errorf("STSC materialised δ=%b above MaxLevel", delta)
		}
	}
	res := MDMC(ds, MDMCOptions{Options: Options{Threads: 2, MaxLevel: d1}})
	checkCube(t, "MDMC-partial", ds, res.Cube, d1)
}

func TestMDMCSkipsFullyDominatedPoints(t *testing.T) {
	// A point strictly dominated in the full space is in no subspace
	// skyline; MDMC must not even create a task for it.
	ds := data.FromRows([][]float32{
		{0.1, 0.1}, {0.9, 0.9}, {0.05, 0.5},
	})
	res := MDMC(ds, MDMCOptions{})
	if len(res.ExtRows) != 2 {
		t.Fatalf("|S⁺| = %d, want 2 (row 1 excluded)", len(res.ExtRows))
	}
	for _, delta := range mask.Subspaces(2) {
		for _, id := range res.Cube.Skyline(delta) {
			if id == 1 {
				t.Errorf("dominated row 1 appears in S_%b", delta)
			}
		}
	}
}

func TestSTSCAndSDSCShareResults(t *testing.T) {
	ds := gen.Synthetic(gen.Anticorrelated, 600, 4, 31)
	ls := STSC(ds, Options{Threads: 3})
	ld := SDSC(ds, Options{Threads: 3})
	for _, delta := range mask.Subspaces(4) {
		if !reflect.DeepEqual(ls.Skyline(delta), ld.Skyline(delta)) {
			t.Errorf("ST and SD disagree on δ=%b", delta)
		}
		if !reflect.DeepEqual(ls.ExtOnly[delta], ld.ExtOnly[delta]) {
			t.Errorf("ST and SD extended sets disagree on δ=%b", delta)
		}
	}
}

func TestRunMDMCChunkAccounting(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 300, 4, 41)
	ctx := PrepareMDMC(ds, 2, 3, 0)
	var total int64
	done := make(chan int64, 64)
	RunMDMC(ctx, CPUPointKernel(MDMCOptions{}), 3, func(n int) { done <- int64(n) })
	close(done)
	for n := range done {
		total += n
	}
	if total != int64(ctx.NumTasks()) {
		t.Errorf("chunks accounted %d tasks, want %d", total, ctx.NumTasks())
	}
	checkCube(t, "RunMDMC", ds, ctx.Cube, 0)
}

func TestDuplicateHeavyData(t *testing.T) {
	// Covertype-style low-cardinality data: many ties exercise the
	// strict/non-strict distinction everywhere.
	rows := make([][]float32, 300)
	for i := range rows {
		rows[i] = []float32{
			float32(i % 3), float32((i / 3) % 3), float32((i / 9) % 3),
		}
	}
	ds := data.FromRows(rows)
	checkLattice(t, "STSC-lowcard", ds, STSC(ds, Options{Threads: 2}), 0)
	checkCube(t, "MDMC-lowcard", ds, MDMC(ds, MDMCOptions{Options: Options{Threads: 2}}).Cube, 0)
}
