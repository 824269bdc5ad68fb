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
// called, only the chunk hint matters.
type fakeDevice struct {
	name  string
	chunk int
}

func (f *fakeDevice) Name() string { return f.name }
func (f *fakeDevice) Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
	panic("not used")
}
func (f *fakeDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	panic("not used")
}
func (f *fakeDevice) ChunkHint(int) int { return f.chunk }

// fakeDevices returns one fake device per chunk hint.
func fakeDevices(hints ...int) []Device {
	out := make([]Device, len(hints))
	for i, h := range hints {
		out[i] = &fakeDevice{name: string(rune('a' + i)), chunk: h}
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
	const n = 10_000
	devs := fakeDevices(16, 64, 4096, 64)
	s := NewScheduler(n, 6, devs, nil)
	claimed := claimAll(t, s, len(devs), 1)
	for i, c := range claimed {
		if c != 1 {
			t.Fatalf("task %d claimed %d times", i, c)
		}
	}
}

// TestSchedulerGuidedCap pins the guided cap: however large a device's
// tuned chunk, no grab takes more than ⌈remaining / (2·#devices)⌉ tasks, so
// a device with a huge hint cannot swallow a small run whole.
func TestSchedulerGuidedCap(t *testing.T) {
	const n = 1_000
	devs := fakeDevices(64, maxChunk, 64, 64)
	s := NewScheduler(n, 6, devs, nil)
	handed := 0
	for live := len(devs); live > 0; {
		live = 0
		for dev := range devs {
			lo, hi := s.Grab(dev)
			if lo >= hi {
				continue
			}
			live++
			if lo != handed {
				t.Fatalf("grab [%d, %d) does not continue at %d", lo, hi, handed)
			}
			if limit := (n - handed + 7) / 8; hi-lo > limit {
				t.Fatalf("device %d grabbed %d of %d remaining tasks, cap %d", dev, hi-lo, n-handed, limit)
			}
			handed = hi
		}
	}
	if handed != n {
		t.Fatalf("handed out %d of %d tasks", handed, n)
	}
}

func TestSchedulerRetune(t *testing.T) {
	s := NewScheduler(1_000_000, 6, fakeDevices(64), nil)
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
}

func TestSchedulerChunkHintClamped(t *testing.T) {
	s := NewScheduler(100, 6, fakeDevices(1, 1<<20), nil)
	if got := s.ChunkSize(0); got != minChunk {
		t.Errorf("tiny hint clamped to %d, want %d", got, minChunk)
	}
	if got := s.ChunkSize(1); got != maxChunk {
		t.Errorf("huge hint clamped to %d, want %d", got, maxChunk)
	}
}
