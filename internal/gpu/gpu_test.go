package gpu

import (
	"reflect"
	"testing"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/gpusim"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

func flightData() *data.Dataset {
	return data.FromRows([][]float32{
		{12.20, 17, 120},
		{9.00, 12, 148},
		{8.20, 13, 169},
		{21.25, 3, 186},
		{21.25, 5, 196},
	})
}

var flightSkylines = map[mask.Mask][]int32{
	0b100: {0}, 0b010: {3}, 0b001: {2},
	0b101: {0, 1, 2}, 0b110: {0, 1, 3}, 0b011: {1, 2, 3},
	0b111: {0, 1, 2, 3},
}

func TestDeviceComputeFlights(t *testing.T) {
	dev := gpusim.GTX980()
	ds := flightData()
	for delta, want := range flightSkylines {
		res := Compute(dev, ds, nil, delta, nil)
		if !reflect.DeepEqual(res.Skyline, want) {
			t.Errorf("S_%03b = %v, want %v", delta, res.Skyline, want)
		}
	}
}

func TestDeviceComputeMatchesCPU(t *testing.T) {
	dev := gpusim.GTX980()
	for _, dist := range []gen.Distribution{gen.Independent, gen.Anticorrelated, gen.Correlated} {
		ds := gen.Synthetic(dist, 1200, 5, 7)
		for _, delta := range []mask.Mask{1, 0b10110, mask.Full(5)} {
			want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
			got := Compute(dev, ds, nil, delta, nil)
			if !reflect.DeepEqual(got.Skyline, want.Skyline) {
				t.Errorf("%v δ=%b: GPU %d ids != CPU %d ids", dist, delta, len(got.Skyline), len(want.Skyline))
			}
			if !reflect.DeepEqual(got.ExtOnly, want.ExtOnly) {
				t.Errorf("%v δ=%b: GPU extOnly mismatch", dist, delta)
			}
		}
	}
}

// sdsc runs the SDSC template with compute (Compute or ComputeGGS) on dev
// as its cuboid hook.
func sdsc(ds *data.Dataset, compute func(*gpusim.Device, *data.Dataset, []int32, mask.Mask, *StatsCollector) skyline.Result,
	dev *gpusim.Device, stats *StatsCollector) *lattice.Lattice {
	return lattice.TopDown(ds, func(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
		res := compute(dev, ds, rows, delta, stats)
		return res.Skyline, res.ExtOnly
	}, lattice.TopDownOptions{})
}

// mdmc runs the MDMC template with every point task in one launch on dev.
func mdmc(ds *data.Dataset, dev *gpusim.Device, stats *StatsCollector) *templates.MDMCContext {
	ctx := templates.PrepareMDMC(ds, 2, 3, 0)
	PointKernel(dev, stats)(ctx, 0, ctx.NumTasks())
	return ctx
}

func TestSDSCOnDevice(t *testing.T) {
	dev := gpusim.GTX980()
	ds := gen.Synthetic(gen.Independent, 300, 4, 9)
	stats := &StatsCollector{}
	l := sdsc(ds, Compute, dev, stats)
	for _, delta := range mask.Subspaces(4) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := l.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%04b: %v, want %v", delta, got, want.Skyline)
		}
	}
	st := stats.Total()
	if st.Blocks == 0 || st.Instructions == 0 {
		t.Errorf("device stats empty: %+v", st)
	}
	if dev.ModelSeconds(st) <= 0 {
		t.Error("model seconds should be positive")
	}
}

func TestMDMCOnDevice(t *testing.T) {
	dev := gpusim.GTX980()
	ds := gen.Synthetic(gen.Anticorrelated, 400, 5, 13)
	stats := &StatsCollector{}
	res := mdmc(ds, dev, stats)
	for _, delta := range mask.Subspaces(5) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := res.Cube.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%05b: %v, want %v", delta, got, want.Skyline)
		}
	}
	st := stats.Total()
	if st.Blocks != int64(len(res.ExtRows)) {
		t.Errorf("blocks = %d, want one per task = %d", st.Blocks, len(res.ExtRows))
	}
	if st.Votes == 0 || st.Transactions == 0 {
		t.Errorf("expected votes and transactions: %+v", st)
	}
}

func TestMDMCOnDeviceMatchesCPUKernel(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 500, 6, 17)
	cpu := templates.MDMC(ds, templates.MDMCOptions{Options: templates.Options{Threads: 2}})
	gpuRes := mdmc(ds, gpusim.GTXTitan(), nil)
	for _, delta := range mask.Subspaces(6) {
		a := cpu.Cube.Skyline(delta)
		b := gpuRes.Cube.Skyline(delta)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("δ=%06b: CPU %v != GPU %v", delta, a, b)
		}
	}
}

func TestBlockThreadsGrowWithDimensionality(t *testing.T) {
	prev := 0
	for _, d := range []int{4, 10, 11, 12, 13, 14, 15, 16} {
		bt := BlockThreads(d)
		if bt < prev {
			t.Errorf("BlockThreads(%d) = %d decreased", d, bt)
		}
		if bt%gpusim.WarpSize != 0 {
			t.Errorf("BlockThreads(%d) = %d not a warp multiple", d, bt)
		}
		prev = bt
	}
}

func TestOccupancyBindsAtHighDimensionality(t *testing.T) {
	// The paper's convergence argument (§7.2): at d = 16 the 16 KB of task
	// state caps resident blocks well below the free-occupancy limit.
	dev := gpusim.GTX980()
	low := dev.OccupantBlocks(templates.StateBytes(8))
	high := dev.OccupantBlocks(templates.StateBytes(16))
	if high >= low {
		t.Errorf("occupancy should shrink with d: d=8 → %d, d=16 → %d", low, high)
	}
	if high != dev.SMs*(dev.SharedMemPerSM/templates.StateBytes(16)) {
		t.Errorf("d=16 occupancy = %d", high)
	}
}

func TestStatsCollectorNilSafe(t *testing.T) {
	var c *StatsCollector
	c.Add(gpusim.Stats{Blocks: 1}) // must not panic
	if c.Total() != (gpusim.Stats{}) {
		t.Error("nil collector should report zero stats")
	}
}
