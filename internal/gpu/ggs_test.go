package gpu

import (
	"reflect"
	"testing"

	"skycube/internal/gen"
	"skycube/internal/gpusim"
	"skycube/internal/mask"
	"skycube/internal/skyline"
)

func TestGGSMatchesCPU(t *testing.T) {
	dev := gpusim.GTX980()
	for _, dist := range []gen.Distribution{gen.Independent, gen.Anticorrelated} {
		ds := gen.Synthetic(dist, 1500, 5, 3)
		for _, delta := range []mask.Mask{1, 0b01101, mask.Full(5)} {
			want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
			got := ComputeGGS(dev, ds, nil, delta, nil)
			if !reflect.DeepEqual(got.Skyline, want.Skyline) {
				t.Errorf("%v δ=%b: GGS %d != BNL %d", dist, delta, len(got.Skyline), len(want.Skyline))
			}
			if !reflect.DeepEqual(got.ExtOnly, want.ExtOnly) {
				t.Errorf("%v δ=%b: GGS extOnly mismatch", dist, delta)
			}
		}
	}
}

func TestSDSCWithGGSBuildsFullSkycube(t *testing.T) {
	dev := gpusim.GTXTitan()
	ds := gen.Synthetic(gen.Independent, 400, 4, 9)
	stats := &StatsCollector{}
	l := sdsc(ds, ComputeGGS, dev, stats)
	for _, delta := range mask.Subspaces(4) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		if got := l.Skyline(delta); !reflect.DeepEqual(got, want.Skyline) {
			t.Errorf("δ=%04b: %v, want %v", delta, got, want.Skyline)
		}
	}
	if stats.Total().Blocks == 0 {
		t.Error("GGS reported no device blocks")
	}
}

// GGS performs a DT per confirmed point with no mask-test pruning, so it
// should issue far more memory transactions than the SkyAlign-style hook
// for the same work — the work-efficiency gap the paper cites (§3, §6.1).
func TestGGSDoesMoreWorkThanSkyAlignHook(t *testing.T) {
	dev := gpusim.GTX980()
	ds := gen.Synthetic(gen.Anticorrelated, 3000, 6, 5)
	delta := mask.Full(6)
	ggsStats := &StatsCollector{}
	skyStats := &StatsCollector{}
	g := ComputeGGS(dev, ds, nil, delta, ggsStats)
	s := Compute(dev, ds, nil, delta, skyStats)
	if !reflect.DeepEqual(g.Skyline, s.Skyline) {
		t.Fatal("hooks disagree on the skyline")
	}
	if ggsStats.Total().Transactions <= skyStats.Total().Transactions {
		t.Errorf("GGS transactions (%d) should exceed SkyAlign-style (%d)",
			ggsStats.Total().Transactions, skyStats.Total().Transactions)
	}
}
