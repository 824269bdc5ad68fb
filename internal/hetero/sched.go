package hetero

import (
	"sync"
	"sync/atomic"
	"time"

	"skycube/internal/obs"
	"skycube/internal/templates"
)

// The scheduler's knobs. Grab sizes are clamped to [minChunk, maxChunk];
// a grab is tuned to take targetChunkTime — short enough that the
// end-of-queue straggler tail stays short, long enough to amortise grab
// overhead; and ewmaAlpha weighs the newest chunk in a device's throughput
// average.
const (
	minChunk        = 16
	maxChunk        = 4096
	targetChunkTime = 2 * time.Millisecond
	ewmaAlpha       = 0.4
)

// SchedCounters summarise one run of the scheduler.
type SchedCounters struct {
	// Steals is always 0: devices pull from one common queue and never
	// steal. The field stays because the benchmark harness reads it.
	Steals int64
	// Retunes counts chunk-size adjustments driven by the throughput EWMA.
	Retunes int64
}

// devState is one device's tuned grab size and throughput average.
type devState struct {
	name string
	mu   sync.Mutex
	// chunk is the current tuned grab size.
	chunk int
	// rate is the EWMA task throughput (tasks/s); 0 until the first chunk
	// completes.
	rate float64
}

// Scheduler is the common task queue of the cross-device MDMC template
// (§4.3): every device pulls its next chunk off one shared counter. A grab
// takes the device's tuned chunk — sized from its measured throughput —
// capped at ⌈remaining / (2·#devices)⌉ (guided self-scheduling), so the
// last tasks go out in ever smaller pieces and no device is left holding a
// large chunk while the rest idle. Every task is handed out exactly once,
// and every chunk is attributed to the device that executed it — the
// invariants the chaos test checks under -race.
type Scheduler struct {
	n       int
	next    atomic.Int64
	devs    []*devState
	metrics *obs.SchedMetrics
	retunes atomic.Int64
}

// NewScheduler builds a scheduler over n point tasks of dimensionality d
// for the given devices. Each device's grab size starts at the device's own
// chunk hint (a CPU cache-friendly 64, a GPU's resident-block count).
// metrics may be nil.
func NewScheduler(n, d int, devices []Device, metrics *obs.SchedMetrics) *Scheduler {
	s := &Scheduler{n: n, devs: make([]*devState, len(devices)), metrics: metrics}
	for i, dev := range devices {
		s.devs[i] = &devState{name: dev.Name(), chunk: min(max(dev.ChunkHint(d), minChunk), maxChunk)}
	}
	return s
}

// NumTasks returns the scheduled task count.
func (s *Scheduler) NumTasks() int { return s.n }

// Counters returns the run's scheduling event totals.
func (s *Scheduler) Counters() SchedCounters {
	return SchedCounters{Retunes: s.retunes.Load()}
}

// GrabFor returns the grab source for device dev; all of the device's lanes
// share the device's tuned chunk.
func (s *Scheduler) GrabFor(dev int) templates.Grab {
	return func(int) (int, int) { return s.Grab(dev) }
}

// Grab hands device dev its next chunk off the common counter. lo == hi
// means every task has been handed out.
func (s *Scheduler) Grab(dev int) (int, int) {
	chunk := s.ChunkSize(dev)
	if rem := s.n - int(s.next.Load()); rem > 0 {
		share := 2 * len(s.devs)
		chunk = min(chunk, (rem+share-1)/share)
	}
	lo := int(s.next.Add(int64(chunk))) - chunk
	if lo >= s.n {
		return s.n, s.n
	}
	return lo, min(lo+chunk, s.n)
}

// Observe feeds one completed chunk (n tasks in dur on device dev) into the
// device's throughput EWMA and retunes its chunk size toward
// targetChunkTime. Called from the account path of every device lane.
func (s *Scheduler) Observe(dev, n int, dur time.Duration) {
	if n <= 0 {
		return
	}
	q := s.devs[dev]
	secs := dur.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	sample := float64(n) / secs
	q.mu.Lock()
	if q.rate <= 0 {
		q.rate = sample
	} else {
		q.rate = ewmaAlpha*sample + (1-ewmaAlpha)*q.rate
	}
	rate := q.rate
	retuned := 0
	want := min(max(int(rate*targetChunkTime.Seconds()), minChunk), maxChunk)
	// Retune only on a ≥ 25% move so the chunk size does not thrash on
	// measurement noise.
	if diff := want - q.chunk; 4*diff >= q.chunk || -4*diff >= q.chunk {
		q.chunk = want
		retuned = want
	}
	q.mu.Unlock()
	if retuned > 0 {
		s.retunes.Add(1)
		s.metrics.Retune(q.name, retuned)
	}
	s.metrics.Rate(q.name, rate)
}

// ChunkSize reports the device's current tuned grab size.
func (s *Scheduler) ChunkSize(dev int) int {
	q := s.devs[dev]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.chunk
}
