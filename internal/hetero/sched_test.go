package hetero

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skycube/internal/data"
	"skycube/internal/mask"
	"skycube/internal/templates"
)

// fakeDevice is a scheduler-only Device: RunPoints and Cuboid are never
// called, only the scheduling hints matter.
type fakeDevice struct {
	name  string
	chunk int
	speed float64
}

func (f *fakeDevice) Name() string { return f.name }
func (f *fakeDevice) Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
	panic("not used")
}
func (f *fakeDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	panic("not used")
}
func (f *fakeDevice) ChunkHint(int) int  { return f.chunk }
func (f *fakeDevice) SpeedHint() float64 { return f.speed }

func fakeDevices(n int) []Device {
	out := make([]Device, n)
	for i := range out {
		out[i] = &fakeDevice{name: string(rune('a' + i)), chunk: 64, speed: 1}
	}
	return out
}

// claimAll drains the scheduler from one goroutine per device, marking every
// handed-out task, and returns the per-task claim counts.
func claimAll(t *testing.T, s *Scheduler, devices int, slowDev int) []int32 {
	t.Helper()
	claimed := make([]int32, s.NumTasks())
	var wg sync.WaitGroup
	wg.Add(devices)
	for i := 0; i < devices; i++ {
		go func(dev int) {
			defer wg.Done()
			for {
				lo, hi := s.Grab(dev)
				if lo >= hi {
					return
				}
				for j := lo; j < hi; j++ {
					if atomic.AddInt32(&claimed[j], 1) != 1 {
						t.Errorf("task %d handed out twice", j)
					}
				}
				if dev == slowDev {
					time.Sleep(200 * time.Microsecond)
				}
			}
		}(i)
	}
	wg.Wait()
	return claimed
}

func TestSchedulerDisjointCoverage(t *testing.T) {
	const n, k = 10_000, 4
	s := NewScheduler(n, 6, fakeDevices(k), Tuning{})
	claimed := claimAll(t, s, k, 1)
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("task %d claimed %d times", i, c)
		}
	}
	if c := s.Counters(); c.Refills == 0 {
		t.Error("no refills recorded")
	}
}

func TestSchedulerPrepartitionCoverage(t *testing.T) {
	const n, k = 7_001, 3 // deliberately not divisible
	s := NewScheduler(n, 6, fakeDevices(k), Tuning{Prepartition: true})
	total := 0
	for i := 0; i < k; i++ {
		rem := s.Remaining(i)
		if rem == 0 {
			t.Errorf("device %d got no prepartitioned range", i)
		}
		total += rem
	}
	if total != n {
		t.Fatalf("prepartitioned ranges cover %d tasks, want %d", total, n)
	}
	claimed := claimAll(t, s, k, 0)
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("task %d claimed %d times", i, c)
		}
	}
}

func TestSchedulerStealOccurs(t *testing.T) {
	// Device 1 never grabs: with a prepartitioned split, device 0 can only
	// finish the run by stealing device 1's whole range.
	const n = 1_000
	s := NewScheduler(n, 6, fakeDevices(2), Tuning{Prepartition: true})
	seen := 0
	for {
		lo, hi := s.Grab(0)
		if lo >= hi {
			break
		}
		seen += hi - lo
	}
	if seen != n {
		t.Fatalf("device 0 drained %d of %d tasks", seen, n)
	}
	c := s.Counters()
	if c.Steals == 0 || c.StolenTasks == 0 {
		t.Fatalf("no steals recorded: %+v", c)
	}
}

func TestSchedulerDisableStealing(t *testing.T) {
	const n = 1_000
	s := NewScheduler(n, 6, fakeDevices(2), Tuning{Prepartition: true, DisableStealing: true})
	seen := 0
	for {
		lo, hi := s.Grab(0)
		if lo >= hi {
			break
		}
		seen += hi - lo
	}
	if seen >= n {
		t.Fatalf("device 0 drained the whole run despite stealing being off")
	}
	if c := s.Counters(); c.Steals != 0 {
		t.Fatalf("steals recorded with stealing disabled: %+v", c)
	}
	if rem := s.Remaining(1); seen+rem != n {
		t.Errorf("device 1 still holds %d, device 0 took %d, total %d != %d",
			rem, seen, seen+rem, n)
	}
}

func TestSchedulerRetune(t *testing.T) {
	devs := fakeDevices(1)
	s := NewScheduler(1_000_000, 6, devs, Tuning{})
	start := s.ChunkSize(0)

	// A fast device (1e7 tasks/s × 2 ms target = 20k, clamped to maxChunk)
	// should grow its chunk...
	for i := 0; i < 5; i++ {
		s.Observe(0, 10_000, time.Millisecond)
	}
	if got := s.ChunkSize(0); got <= start {
		t.Errorf("chunk %d did not grow from %d for a fast device", got, start)
	}
	// ...and a slow one (1k tasks/s) should shrink toward minChunk.
	for i := 0; i < 20; i++ {
		s.Observe(0, 10, 10*time.Millisecond)
	}
	if got := s.ChunkSize(0); got > 64 {
		t.Errorf("chunk %d did not shrink for a slow device", got)
	}
	if c := s.Counters(); c.Retunes == 0 {
		t.Error("no retunes recorded")
	}

	frozen := NewScheduler(1_000_000, 6, fakeDevices(1), Tuning{DisableRetune: true})
	for i := 0; i < 5; i++ {
		frozen.Observe(0, 10_000, time.Millisecond)
	}
	if got := frozen.ChunkSize(0); got != 64 {
		t.Errorf("DisableRetune: chunk moved to %d", got)
	}
}

func TestSchedulerStealsFromSlowestQueue(t *testing.T) {
	// Three devices, prepartitioned; devices 1 and 2 hold equal ranges but
	// device 2 is observed to be 100× slower, so its queue has the longest
	// drain time — device 0, once empty, must steal from it.
	const n = 3_000
	s := NewScheduler(n, 6, fakeDevices(3), Tuning{Prepartition: true, DisableRetune: true})
	s.Observe(1, 1000, time.Millisecond) // 1e6 tasks/s
	s.Observe(2, 10, time.Millisecond)   // 1e4 tasks/s
	for s.Remaining(0) > 0 {
		if lo, hi := s.Grab(0); lo >= hi {
			t.Fatal("grab failed before device 0's own range drained")
		}
	}
	before1, before2 := s.Remaining(1), s.Remaining(2)
	if lo, hi := s.Grab(0); lo >= hi {
		t.Fatal("steal failed")
	}
	if s.Remaining(1) != before1 {
		t.Errorf("stole from the fast queue (victim 1: %d -> %d)", before1, s.Remaining(1))
	}
	if s.Remaining(2) >= before2 {
		t.Errorf("slow queue untouched (victim 2: %d -> %d)", before2, s.Remaining(2))
	}
}

func TestSchedulerChunkHintClamped(t *testing.T) {
	devs := []Device{
		&fakeDevice{name: "tiny", chunk: 1, speed: 1},
		&fakeDevice{name: "huge", chunk: 1 << 20, speed: 1},
	}
	s := NewScheduler(100, 6, devs, Tuning{})
	if got := s.ChunkSize(0); got != minChunk {
		t.Errorf("tiny hint clamped to %d, want %d", got, minChunk)
	}
	if got := s.ChunkSize(1); got != maxChunk {
		t.Errorf("huge hint clamped to %d, want %d", got, maxChunk)
	}
}
