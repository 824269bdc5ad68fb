package hetero

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skycube/internal/data"
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

// startBarrier decorates a Device so it grabs no second chunk until every
// device sharing the barrier has grabbed its first: a device whose goroutine
// starts late still gets work, since the guided cap leaves tasks for the
// others after every grab.
type startBarrier struct {
	Device
	all *sync.WaitGroup // one count per device
}

func (b *startBarrier) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	var first sync.Once
	b.Device.RunPoints(ctx, func(lane int) (int, int) {
		lo, hi := grab(lane)
		first.Do(func() { b.all.Done(); b.all.Wait() })
		return lo, hi
	}, account)
}

// TestScheduleChaos runs cross-device MDMC under induced schedule chaos —
// random per-chunk delays on every device plus one device 10× slower — and
// checks that the skycube is still exactly right, that no chunk was handed
// out twice, and that the per-device Shares cover every point task exactly
// once and match the trace. Run under -race this exercises the concurrent
// grabs off the common counter and the per-device retunes.
func TestScheduleChaos(t *testing.T) {
	ds := gen.Synthetic(gen.Anticorrelated, 2000, 6, 21)
	want := map[mask.Mask][]int32{}
	for _, delta := range mask.Subspaces(6) {
		want[delta] = skyline.Compute(ds, nil, delta, skyline.AlgoBNL, 1).Skyline
	}

	t.Run("adaptive", func(t *testing.T) {
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
		tr := obs.New()
		res, shares, _ := MDMC(ds, devices, Options{Threads: 2, Metrics: obs.NewSchedMetrics(reg), Trace: tr})

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
		// share it counts toward.
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

		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(sb.String(), "skycube_sched_task_rate") {
			t.Error("device throughput missing from exported metrics")
		}
	})
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

// staticMDMC is the textbook static schedule the imbalance wall measures
// the common queue against: the same prologue as MDMC, then the task
// range split equally across the devices up front, each device draining
// only its own slice in chunks of its hint.
func staticMDMC(ds *data.Dataset, devices []Device) {
	ctx := templates.PrepareMDMC(ds, 2, 3, 0)
	n := ctx.NumTasks()
	var wg sync.WaitGroup
	for i, dev := range devices {
		hi := (i + 1) * n / len(devices)
		chunk := dev.ChunkHint(ctx.D)
		var next atomic.Int64
		next.Store(int64(i * n / len(devices)))
		grab := func(int) (int, int) {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= hi {
				return hi, hi
			}
			return lo, min(lo+chunk, hi)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev.RunPoints(ctx, grab, func(int, int, time.Duration) {})
		}()
	}
	wg.Wait()
}

// BenchmarkMDMCImbalance compares a static equal split against the common
// queue when one of four devices is 10× slower. Static is bounded below by
// the straggler's quarter of the work; on the common queue the straggler
// takes only what it can finish while the fast devices drain the rest.
func BenchmarkMDMCImbalance(b *testing.B) {
	ds := gen.Synthetic(gen.Anticorrelated, 4000, 6, 7)
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			staticMDMC(ds, imbalancedDevices())
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MDMC(ds, imbalancedDevices(), Options{Threads: 2})
		}
	})
}

// TestDynamicBeatsStaticUnderImbalance pins the benchmark's headline claim
// as a test: with one 10× straggler, the common queue must finish at least
// 1.3× faster than the static split, and its retunes must show up in the
// exported metrics. Both sides are timed the same way, the best of three
// runs, interleaved so that a slow stretch of the host hits both; the
// speedup's distribution over repeated runs is in EXPERIMENTS.md.
func TestDynamicBeatsStaticUnderImbalance(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	ds := gen.Synthetic(gen.Anticorrelated, 4000, 6, 7)
	reg := obs.NewRegistry()
	metrics := obs.NewSchedMetrics(reg)
	var static, dynamic time.Duration
	var counters SchedCounters
	for i := 0; i < 3; i++ {
		start := time.Now()
		staticMDMC(ds, imbalancedDevices())
		if el := time.Since(start); i == 0 || el < static {
			static = el
		}
		start = time.Now()
		_, _, c := MDMC(ds, imbalancedDevices(), Options{Threads: 2, Metrics: metrics})
		if el := time.Since(start); i == 0 || el < dynamic {
			dynamic, counters = el, c
		}
	}

	if float64(static) < 1.3*float64(dynamic) {
		t.Errorf("static %v vs dynamic %v: speedup %.2f× < 1.3×",
			static, dynamic, float64(static)/float64(dynamic))
	}
	t.Logf("static %v, dynamic %v (%.1f×), counters %+v",
		static, dynamic, float64(static)/float64(dynamic), counters)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if counters.Retunes > 0 && !strings.Contains(sb.String(), "skycube_sched_retunes_total") {
		t.Error("retunes counted but missing from exported metrics")
	}
}
