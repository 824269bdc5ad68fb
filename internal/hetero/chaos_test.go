package hetero

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skycube/internal/gen"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

// slowDevice decorates a Device so every chunk appears factor× slower: the
// extra time is really slept (so the wall clock sees it) and reported in the
// account duration (so the scheduler's EWMA sees it too). perTask is a floor
// on the extra cost, making the slowdown robust when the real kernel time of
// a small chunk rounds to ~0.
type slowDevice struct {
	Device
	factor  float64
	perTask time.Duration
}

func (s *slowDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	s.Device.RunPoints(ctx, grab, func(lane, n int, dur time.Duration) {
		extra := time.Duration(float64(dur) * (s.factor - 1))
		if min := time.Duration(n) * s.perTask; extra < min {
			extra = min
		}
		time.Sleep(extra)
		account(lane, n, dur+extra)
	})
}

// jitterDevice adds a pseudo-random delay of up to maxDelay after each chunk
// (deterministic splitmix64 stream, safe for concurrent lanes).
type jitterDevice struct {
	Device
	maxDelay time.Duration
	seq      atomic.Uint64
}

func (j *jitterDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	j.Device.RunPoints(ctx, grab, func(lane, n int, dur time.Duration) {
		z := j.seq.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		delay := time.Duration(z % uint64(j.maxDelay))
		time.Sleep(delay)
		account(lane, n, dur+delay)
	})
}

// auditDevice decorates a Device so every task index handed to it is counted
// in a claim table shared by all devices of the run — the double-handout
// detector of the chaos test.
type auditDevice struct {
	Device
	claimed []int32
	dupes   *atomic.Int64
}

func (a *auditDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	a.Device.RunPoints(ctx, func(lane int) (int, int) {
		lo, hi := grab(lane)
		for i := lo; i < hi; i++ {
			if atomic.AddInt32(&a.claimed[i], 1) != 1 {
				a.dupes.Add(1)
			}
		}
		return lo, hi
	}, account)
}

// TestScheduleChaos runs cross-device MDMC under induced schedule chaos —
// random per-chunk delays on every device plus one device 10× slower — and
// checks that the skycube is still exactly right, that no chunk was handed
// out twice, and that the per-device Shares cover every point task exactly
// once. Run under -race this exercises the steal path's ownership handoff.
func TestScheduleChaos(t *testing.T) {
	ds := gen.Synthetic(gen.Anticorrelated, 2000, 6, 21)
	want := map[mask.Mask][]int32{}
	for _, delta := range mask.Subspaces(6) {
		want[delta] = skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1).Skyline
	}

	for _, cfg := range []struct {
		name        string
		tun         Tuning
		needsSteals bool
	}{
		{"adaptive", Tuning{}, false},
		{"no-steal", Tuning{DisableStealing: true}, false},
		// Prepartitioned with stealing on: the fast devices can only finish
		// by stealing the slow device's range, so steals are guaranteed.
		{"prepartition-steal", Tuning{Prepartition: true}, true},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			claimed := make([]int32, ds.N)
			var dupes atomic.Int64
			chaos := func(d Device, slow bool) Device {
				if slow {
					d = &slowDevice{Device: d, factor: 10, perTask: 2 * time.Microsecond}
				}
				d = &jitterDevice{Device: d, maxDelay: 100 * time.Microsecond}
				return &auditDevice{Device: d, claimed: claimed, dupes: &dupes}
			}
			devices := []Device{
				chaos(&CPUDevice{Threads: 2, Label: "fast0"}, false),
				chaos(&CPUDevice{Threads: 1, Label: "fast1"}, false),
				chaos(&CPUDevice{Threads: 1, Label: "slow"}, true),
			}
			reg := obs.NewRegistry()
			tun := cfg.tun
			tun.Metrics = obs.NewSchedMetrics(reg)
			tr := obs.New()
			res, shares, counters := MDMCAllSched(ds, devices, 2, 0, tun, tr, nil)

			for _, delta := range mask.Subspaces(6) {
				if got := res.Cube.Skyline(delta); !reflect.DeepEqual(got, want[delta]) {
					t.Fatalf("δ=%06b: skyline diverged under chaos", delta)
				}
			}
			if d := dupes.Load(); d != 0 {
				t.Errorf("%d tasks handed out more than once", d)
			}
			n := len(res.ExtRows)
			for i := 0; i < n; i++ {
				if claimed[i] != 1 {
					t.Fatalf("task %d claimed %d times", i, claimed[i])
				}
			}
			if shares.Total() != int64(n) {
				t.Errorf("shares total %d, want %d point tasks", shares.Total(), n)
			}

			// Every chunk span in the trace is attributed to the device whose
			// share it counts toward — stolen work included.
			traced := map[string]int64{}
			for _, s := range tr.Spans() {
				if s.Cat == obs.CatChunk {
					traced[DeviceOfTrack(s.Track)] += s.N
				}
			}
			for _, f := range shares.Fractions() {
				if traced[f.Name] != f.Tasks {
					t.Errorf("device %s: trace says %d tasks, shares say %d",
						f.Name, traced[f.Name], f.Tasks)
				}
			}

			if cfg.needsSteals {
				if counters.Steals == 0 {
					t.Error("expected steals from the slow device's prepartitioned range")
				}
				var sb strings.Builder
				if err := reg.WritePrometheus(&sb); err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(sb.String(), "skycube_sched_steals_total") {
					t.Error("steal events missing from exported metrics")
				}
			}
			if cfg.tun.DisableStealing && counters.Steals != 0 {
				t.Errorf("steals recorded with stealing disabled: %+v", counters)
			}
		})
	}
}

// imbalancedDevices is the benchmark fleet: three equal CPU devices and one
// 10× slower straggler.
func imbalancedDevices() []Device {
	return []Device{
		&CPUDevice{Threads: 1, Label: "cpu0"},
		&CPUDevice{Threads: 1, Label: "cpu1"},
		&CPUDevice{Threads: 1, Label: "cpu2"},
		&slowDevice{Device: &CPUDevice{Threads: 1, Label: "slow"},
			factor: 10, perTask: 10 * time.Microsecond},
	}
}

var staticTuning = Tuning{Prepartition: true, DisableStealing: true, DisableRetune: true}

// BenchmarkMDMCImbalance compares a static equal split against the adaptive
// work-stealing schedule when one of four devices is 10× slower. Static is
// bounded below by the straggler's quarter of the work; stealing moves that
// quarter to the idle fast devices.
func BenchmarkMDMCImbalance(b *testing.B) {
	ds := gen.Synthetic(gen.Anticorrelated, 4000, 6, 7)
	for _, cfg := range []struct {
		name string
		tun  Tuning
	}{
		{"static", staticTuning},
		{"stealing", Tuning{}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MDMCAllSched(ds, imbalancedDevices(), 2, 0, cfg.tun, nil, nil)
			}
		})
	}
}

// TestStealingBeatsStaticUnderImbalance pins the benchmark's headline claim
// as a test: with one 10× straggler, the adaptive schedule must finish at
// least 1.3× faster than the static split, and the steals must show up in
// the exported metrics. Both sides are timed the same way, the best of three
// runs, interleaved so that a slow stretch of the host hits both; the
// speedup's distribution over repeated runs is in EXPERIMENTS.md.
func TestStealingBeatsStaticUnderImbalance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ds := gen.Synthetic(gen.Anticorrelated, 4000, 6, 7)
	reg := obs.NewRegistry()
	adaptive := Tuning{Metrics: obs.NewSchedMetrics(reg)}
	var static, stealing time.Duration
	var counters SchedCounters
	for i := 0; i < 3; i++ {
		start := time.Now()
		MDMCAllSched(ds, imbalancedDevices(), 2, 0, staticTuning, nil, nil)
		if el := time.Since(start); i == 0 || el < static {
			static = el
		}
		start = time.Now()
		_, _, c := MDMCAllSched(ds, imbalancedDevices(), 2, 0, adaptive, nil, nil)
		if el := time.Since(start); i == 0 || el < stealing {
			stealing, counters = el, c
		}
	}

	if float64(static) < 1.3*float64(stealing) {
		t.Errorf("static %v vs stealing %v: speedup %.2f× < 1.3×",
			static, stealing, float64(static)/float64(stealing))
	}
	t.Logf("static %v, stealing %v (%.1f×), counters %+v",
		static, stealing, float64(static)/float64(stealing), counters)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if counters.Steals > 0 && !strings.Contains(sb.String(), "skycube_sched_steals_total") {
		t.Error("steals counted but missing from exported metrics")
	}
}
