package counters

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/gpu"
	"skycube/internal/gpusim"
	"skycube/internal/hetero"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/memsim"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

// The profiled builds must produce exactly the same skycubes as the
// production implementations — instrumentation must never change results.
func TestProfiledBuildsAreCorrect(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 400, 5, 3)
	cfg := Config{Threads: 4, Sockets: 2, HugePages: true}

	_, lpq := ProfilePQ(ds, cfg)
	_, lst := ProfileST(ds, cfg)
	_, lsd := ProfileSD(ds, cfg)
	_, md := ProfileMD(ds, cfg)

	for _, delta := range mask.Subspaces(5) {
		want := skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1)
		for name, got := range map[string][]int32{
			"PQ": lpq.Skyline(delta),
			"ST": lst.Skyline(delta),
			"SD": lsd.Skyline(delta),
			"MD": md.Cube.Skyline(delta),
		} {
			if !reflect.DeepEqual(got, want.Skyline) {
				t.Errorf("%s δ=%05b: %v, want %v", name, delta, got, want.Skyline)
			}
		}
	}
}

// The memsim and gpusim models run the production engine and charge what its
// hooks report, so the words they are told of must be exactly the words the
// production build sweeps on the same input: no fewer (an engine sweep no
// model charges) and no more (a model sweeping on its own). A cuboid's sweeps
// do not depend on its thread count, so one production count serves all.
func TestModelsSweepWhatTheEngineSweeps(t *testing.T) {
	sweeps := func(build func() int64) (reported, swept int64) {
		before := dom.KernelStats().BlockSweeps
		reported = build()
		return reported, int64(dom.KernelStats().BlockSweeps - before)
	}
	for _, in := range []struct {
		name string
		ds   *data.Dataset
	}{
		{"I_d=6_n=3000", gen.Synthetic(gen.Independent, 3000, 6, 7)},
		{"A_d=4_n=20000", gen.Synthetic(gen.Anticorrelated, 20_000, 4, 7)},
		// The full-space cuboid is above the pre-filter's grain.
		{"A_d=4_n=40000", gen.Synthetic(gen.Anticorrelated, 40_000, 4, 7)},
	} {
		_, want := sweeps(func() int64 { templates.STSC(in.ds, templates.Options{Threads: 1}); return 0 })
		if want == 0 {
			t.Fatalf("%s: the production build swept no words", in.name)
		}
		for name, build := range map[string]func() int64{
			"ProfileST/4": func() int64 { r, _ := ProfileST(in.ds, Config{Threads: 4}); return r.Sweeps },
			"ProfileSD/1": func() int64 { r, _ := ProfileSD(in.ds, Config{Threads: 1}); return r.Sweeps },
			"ProfileSD/4": func() int64 { r, _ := ProfileSD(in.ds, Config{Threads: 4, Sockets: 2}); return r.Sweeps },
			"hetero.SDSC/GTX980": func() int64 {
				devs, st := oneCard()
				hetero.SDSC(in.ds, devs, hetero.Options{})
				return st.Sweeps()
			},
		} {
			reported, swept := sweeps(build)
			if reported != want || swept != want {
				t.Errorf("%s %s: hooks reported %d words, engine swept %d, production build sweeps %d",
					in.name, name, reported, swept, want)
			}
		}
	}
}

// The PQ and GPU-MDMC models run the production filters (skyline.PivotFilter,
// Solution.FilterInstrumented) and charge what their hooks report, so their
// counts must be exactly those of the hand-written copies they replaced. Each
// literal below was recorded from the deleted copy: the probed BSkyTree mirror
// ProfilePQ ran, and the leaf scan (Solution.FilterLeafScan over
// Tree.CompositeStrict) gpu.PointKernel filtered with. At one thread every
// memsim counter repeats; at four, the heap addresses interleave with the host
// scheduler, so only instructions and loads do.
func TestModelsRepeatTheirPinnedCounts(t *testing.T) {
	for _, in := range []struct {
		name   string
		ds     *data.Dataset
		one    memsim.Counters // ProfilePQ, Threads: 1, recorded from the deleted probed mirror
		fourIL [2]int64        // ProfilePQ, Threads: 4: Instructions, Loads, recorded from the deleted probed mirror
	}{
		{"I_d=6_n=2000_s5", gen.Synthetic(gen.Independent, 2000, 6, 5),
			memsim.Counters{Instructions: 4101622, Loads: 1459956, L2Misses: 10241, L3Misses: 10168,
				StallL2Pending: 1314, StallL3Pending: 996464, STLBMisses: 607, PageWalkCycles: 54630, SyncCycles: 15000},
			[2]int64{4101622, 1459956}},
		{"A_d=5_n=600_s9", gen.Synthetic(gen.Anticorrelated, 600, 5, 9),
			memsim.Counters{Instructions: 3065295, Loads: 1169418, L2Misses: 5526, L3Misses: 5526,
				StallL2Pending: 0, StallL3Pending: 541548, STLBMisses: 341, PageWalkCycles: 30690, SyncCycles: 12500},
			[2]int64{3065295, 1169418}},
		{"I_d=5_n=400_s3", gen.Synthetic(gen.Independent, 400, 5, 3),
			memsim.Counters{Instructions: 303635, Loads: 113020, L2Misses: 1411, L3Misses: 1411,
				StallL2Pending: 0, StallL3Pending: 138278, STLBMisses: 84, PageWalkCycles: 7560, SyncCycles: 12500},
			[2]int64{303635, 113020}},
	} {
		if r, _ := ProfilePQ(in.ds, Config{Threads: 1}); r.Counters != in.one {
			t.Errorf("%s ProfilePQ/1: %+v, want %+v", in.name, r.Counters, in.one)
		}
		r, _ := ProfilePQ(in.ds, Config{Threads: 4})
		if got := [2]int64{r.Counters.Instructions, r.Counters.Loads}; got != in.fourIL {
			t.Errorf("%s ProfilePQ/4: instructions, loads %v, want %v", in.name, got, in.fourIL)
		}
	}
	for _, in := range []struct {
		name string
		ds   *data.Dataset
		want gpusim.Stats // MDMC on a GTX 980, recorded from the deleted leaf scan
	}{
		{"A_d=5_n=400_s13", gen.Synthetic(gen.Anticorrelated, 400, 5, 13),
			gpusim.Stats{Blocks: 297, Instructions: 985110, Transactions: 20338, SharedAccesses: 94433,
				Divergences: 3686, Votes: 87615, Syncs: 297, TransferBytes: 1188}},
		{"I_d=6_n=3000_s7", gen.Synthetic(gen.Independent, 3000, 6, 7),
			gpusim.Stats{Blocks: 440, Instructions: 2191649, Transactions: 46767, SharedAccesses: 211894,
				Divergences: 9801, Votes: 193160, Syncs: 440, TransferBytes: 3520}},
	} {
		devs, st := oneCard()
		hetero.MDMC(in.ds, devs, hetero.Options{Threads: 2})
		if got := st.Total(); got != in.want {
			t.Errorf("%s hetero.MDMC/GTX980: %+v, want %+v", in.name, got, in.want)
		}
	}
}

// oneCard is the device list of a run on one modelled GTX 980, with the
// card's collector.
func oneCard() ([]hetero.Device, *gpu.StatsCollector) {
	devs := hetero.Devices(1, false, gpusim.GTX980())
	return devs, devs[0].(*hetero.GPUDevice).Stats
}

func TestReportsHaveCounters(t *testing.T) {
	ds := gen.Synthetic(gen.Anticorrelated, 600, 5, 9)
	cfg := Config{Threads: 2, Sockets: 1, HugePages: true}
	for _, run := range []func() Report{
		func() Report { r, _ := ProfilePQ(ds, cfg); return r },
		func() Report { r, _ := ProfileST(ds, cfg); return r },
		func() Report { r, _ := ProfileSD(ds, cfg); return r },
		func() Report { r, _ := ProfileMD(ds, cfg); return r },
	} {
		r := run()
		c := r.Counters
		if c.Instructions == 0 || c.Loads == 0 {
			t.Errorf("%s: empty counters %+v", r.Algo, c)
		}
		if r.CPI() <= 0 {
			t.Errorf("%s: CPI = %v", r.Algo, r.CPI())
		}
	}
}

// The paper's headline hardware observation (Fig. 8): MDMC's static tree
// misses cache orders of magnitude less often than the baseline's
// pointer-chasing trees.
func TestMDMissesLessThanPQ(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 2000, 6, 5)
	cfg := Config{Threads: 4, Sockets: 1, HugePages: true}
	pq, _ := ProfilePQ(ds, cfg)
	md, _ := ProfileMD(ds, cfg)
	if md.Counters.L2Misses >= pq.Counters.L2Misses {
		t.Errorf("MD L2 misses (%d) should be below PQ (%d)",
			md.Counters.L2Misses, pq.Counters.L2Misses)
	}
	if md.Counters.L3Misses >= pq.Counters.L3Misses {
		t.Errorf("MD L3 misses (%d) should be below PQ (%d)",
			md.Counters.L3Misses, pq.Counters.L3Misses)
	}
}

// Fig. 10's observation: the data-parallel MD has a far lower STLB miss
// rate than the pointer-chasing baseline. At unit-test scale (2 000 points)
// transparent huge pages make every footprint TLB-resident, so the
// comparison is run with 4 KiB pages, where the working-set difference is
// observable; the harness's Figure 10 uses huge pages at larger scale.
func TestMDTLBBetterThanPQ(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 2000, 6, 7)
	cfg := Config{Threads: 4, Sockets: 1, HugePages: false}
	pq, _ := ProfilePQ(ds, cfg)
	md, _ := ProfileMD(ds, cfg)
	if md.Counters.STLBMissRate() >= pq.Counters.STLBMissRate() {
		t.Errorf("MD STLB rate (%v) should be below PQ (%v)",
			md.Counters.STLBMissRate(), pq.Counters.STLBMissRate())
	}
}

// Fig. 11's observation: PQ's CPI degrades when its threads span two
// sockets; the second socket hurts it more than MD.
func TestSecondSocketHurtsPQMost(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 2000, 6, 11)
	one := Config{Threads: 4, Sockets: 1, HugePages: true}
	two := Config{Threads: 4, Sockets: 2, HugePages: true}
	pq1, _ := ProfilePQ(ds, one)
	pq2, _ := ProfilePQ(ds, two)
	md1, _ := ProfileMD(ds, one)
	md2, _ := ProfileMD(ds, two)
	pqDeg := pq2.CPI() / pq1.CPI()
	mdDeg := md2.CPI() / md1.CPI()
	if pqDeg < mdDeg {
		t.Errorf("PQ should degrade more across sockets: PQ %.3f× vs MD %.3f×", pqDeg, mdDeg)
	}
}

func TestConfigDefaults(t *testing.T) {
	sys := newSystem(Config{})
	if sys.threads != 1 || sys.sockets != 1 {
		t.Errorf("defaults: threads=%d sockets=%d", sys.threads, sys.sockets)
	}
	// Thread placement: with 4 threads on 2 sockets, half on each.
	sys = newSystem(Config{Threads: 4, Sockets: 2})
	s0, s1 := 0, 0
	for w := 0; w < 4; w++ {
		if sys.threadProbe(w).Socket() == 0 {
			s0++
		} else {
			s1++
		}
	}
	if s0 != 2 || s1 != 2 {
		t.Errorf("placement: %d on socket0, %d on socket1", s0, s1)
	}
}

// The ST model splits a level's probes among its workers as templates.STSC
// splits its threads (lattice.Shares): cuboid i of a level goes to worker
// i mod w, which owns the next Shares[w] probes — all of them for the root,
// probes[w] alone on a level with a cuboid for every thread.
func TestStaticTopDownSplitsProbesByShares(t *testing.T) {
	const d = 4
	ds := gen.Synthetic(gen.Independent, 200, d, 3)
	for threads := 1; threads <= 5; threads++ {
		probes := newSystem(Config{Threads: threads}).probes()
		var mu sync.Mutex
		got := map[mask.Mask][]*memsim.Thread{}
		staticTopDown(ds, probes, func(_ int, share []*memsim.Thread, rows []int32, delta mask.Mask) ([]int32, []int32) {
			mu.Lock()
			got[delta] = share
			mu.Unlock()
			res := skyline.Compute(ds, rows, delta, skyline.AlgoBNL, 1)
			return res.Skyline, res.ExtOnly
		})
		for level := 1; level <= d; level++ {
			cuboids := mask.Level(d, level)
			shares := lattice.Shares(threads, len(cuboids))
			for i, delta := range cuboids {
				w := i % len(shares)
				first := 0
				for _, n := range shares[:w] {
					first += n
				}
				if want := probes[first : first+shares[w]]; !slices.Equal(got[delta], want) {
					t.Errorf("threads=%d δ=%04b: %d probes from worker %d's share, want probes[%d:%d]",
						threads, delta, len(got[delta]), w, first, first+shares[w])
				}
			}
		}
	}
}
