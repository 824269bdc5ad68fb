package hetero

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skycube/internal/obs"
	"skycube/internal/templates"
)

// The scheduler's knobs. Grab sizes are clamped to [minChunk, maxChunk];
// a grab is tuned to take targetChunkTime — short enough that the
// end-of-queue straggler tail stays short, long enough to amortise grab
// overhead; ewmaAlpha weighs the newest chunk in a device's throughput
// average; and a refill pulls refillFactor tuned chunks from the global
// counter, the surplus being what idle devices steal.
const (
	minChunk        = 16
	maxChunk        = 4096
	targetChunkTime = 2 * time.Millisecond
	ewmaAlpha       = 0.4
	refillFactor    = 4
)

// Tuning configures the adaptive work-stealing scheduler. The zero value
// enables everything; the Disable* switches exist for ablations,
// experiments and the differential tests.
type Tuning struct {
	// DisableStealing turns off work stealing: an idle device whose queue
	// and the global counter are both empty simply finishes.
	DisableStealing bool
	// DisableRetune freezes every queue's chunk size at its device hint
	// instead of auto-tuning it from the throughput EWMA.
	DisableRetune bool
	// DisableCostOrder keeps SDSC's within-level cuboid order numeric
	// instead of cost-ordered largest-first.
	DisableCostOrder bool
	// Prepartition splits the task range equally across the device queues
	// up front instead of feeding them from the shared grab counter on
	// demand. With stealing disabled this is the textbook static schedule —
	// the baseline of the imbalance experiment and BenchmarkMDMCImbalance.
	Prepartition bool
	// Metrics, if non-nil, receives steal/refill/retune counters and the
	// live chunk-size and throughput gauges.
	Metrics *obs.SchedMetrics
}

// SchedCounters summarise one run of the scheduler.
type SchedCounters struct {
	// Steals is the number of work-stealing events; StolenTasks the point
	// tasks they moved between queues.
	Steals, StolenTasks int64
	// Refills counts device-queue refills from the global grab counter.
	Refills int64
	// Retunes counts chunk-size adjustments driven by the throughput EWMA.
	Retunes int64
}

// span is a half-open range of point-task indices owned by one queue.
type span struct{ lo, hi int }

// devQueue is one device's deque of task ranges. The owning device pops
// tuned chunks from the front; idle devices steal from the back.
type devQueue struct {
	name string
	mu   sync.Mutex
	// ranges are disjoint, each non-empty. The slice is short: at most the
	// refill surplus plus stolen spans.
	ranges []span
	// chunk is the current tuned grab size.
	chunk int
	// rate is the EWMA task throughput (tasks/s); 0 until the first chunk
	// completes, when hint stands in for victim selection.
	rate float64
	// hint is the device's relative speed estimate (only compared between
	// devices, never mixed with measured rates).
	hint float64
}

func (q *devQueue) remainingLocked() int {
	n := 0
	for _, r := range q.ranges {
		n += r.hi - r.lo
	}
	return n
}

// Scheduler is the adaptive cross-device work scheduler of the MDMC
// template (and, via cost-ordered queues, SDSC): per-device deques fed by a
// global grab counter, chunk sizes tuned from each device's recent
// throughput, and idle devices stealing half the remaining range from the
// queue that would take longest to drain. Every range is handed out exactly
// once, and every chunk is attributed to the device that executed it — the
// invariants the chaos test checks under -race.
type Scheduler struct {
	n      int
	tun    Tuning
	next   atomic.Int64
	queues []*devQueue

	steals, stolen, refills, retunes atomic.Int64
}

// NewScheduler builds a scheduler over n point tasks of dimensionality d
// for the given devices. Each device's queue starts at the device's own
// chunk hint (a CPU cache-friendly 64, a GPU's resident-block count).
func NewScheduler(n, d int, devices []Device, tun Tuning) *Scheduler {
	s := &Scheduler{n: n, tun: tun, queues: make([]*devQueue, len(devices))}
	for i, dev := range devices {
		chunk := min(max(dev.ChunkHint(d), minChunk), maxChunk)
		s.queues[i] = &devQueue{name: dev.Name(), chunk: chunk, hint: dev.SpeedHint()}
	}
	if tun.Prepartition && n > 0 && len(devices) > 0 {
		per, extra := n/len(devices), n%len(devices)
		lo := 0
		for i, q := range s.queues {
			size := per
			if i < extra {
				size++
			}
			if size > 0 {
				q.ranges = append(q.ranges, span{lo, lo + size})
			}
			lo += size
		}
		s.next.Store(int64(n))
	}
	return s
}

// NumTasks returns the scheduled task count.
func (s *Scheduler) NumTasks() int { return s.n }

// Counters returns the run's scheduling event totals.
func (s *Scheduler) Counters() SchedCounters {
	return SchedCounters{
		Steals:      s.steals.Load(),
		StolenTasks: s.stolen.Load(),
		Refills:     s.refills.Load(),
		Retunes:     s.retunes.Load(),
	}
}

// GrabFor returns the grab source for device dev; all of the device's lanes
// share the device's queue.
func (s *Scheduler) GrabFor(dev int) templates.Grab {
	return func(int) (int, int) { return s.Grab(dev) }
}

// Grab hands device dev its next chunk: from its own queue, else a refill
// from the global counter, else by stealing. lo == hi means the whole run
// is out of undistributed work.
func (s *Scheduler) Grab(dev int) (int, int) {
	q := s.queues[dev]
	for {
		if lo, hi, ok := q.pop(); ok {
			return lo, hi
		}
		if lo, hi, ok := s.refill(q); ok {
			return lo, hi
		}
		if s.tun.DisableStealing || !s.steal(dev) {
			return s.n, s.n
		}
		// The stolen span is in our queue now; loop to pop from it.
	}
}

// pop takes one tuned chunk off the front of the queue.
func (q *devQueue) pop() (int, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ranges) == 0 {
		return 0, 0, false
	}
	r := &q.ranges[0]
	lo := r.lo
	hi := lo + q.chunk
	if hi > r.hi {
		hi = r.hi
	}
	r.lo = hi
	if r.lo >= r.hi {
		q.ranges = q.ranges[1:]
	}
	return lo, hi, true
}

// refill claims refillFactor tuned chunks from the global counter, returns
// the first and queues the surplus (the part idle devices may steal back).
func (s *Scheduler) refill(q *devQueue) (int, int, bool) {
	q.mu.Lock()
	chunk := q.chunk
	q.mu.Unlock()
	block := chunk * refillFactor
	lo := int(s.next.Add(int64(block))) - block
	if lo >= s.n {
		return 0, 0, false
	}
	hi := lo + block
	if hi > s.n {
		hi = s.n
	}
	grabHi := lo + chunk
	if grabHi > hi {
		grabHi = hi
	}
	if grabHi < hi {
		q.mu.Lock()
		q.ranges = append(q.ranges, span{grabHi, hi})
		q.mu.Unlock()
	}
	s.refills.Add(1)
	s.tun.Metrics.Refill(q.name, hi-lo)
	return lo, grabHi, true
}

// steal moves half of the remaining back range of the most burdened queue —
// longest modelled drain time, i.e. the slowest for what it still holds —
// into thief's queue. Ownership transfers under the victim's lock, so a
// range is only ever handed out by exactly one queue.
func (s *Scheduler) steal(thief int) bool {
	type cand struct {
		idx   int
		drain float64
	}
	cands := make([]cand, 0, len(s.queues)-1)
	for i, q := range s.queues {
		if i == thief {
			continue
		}
		q.mu.Lock()
		rem := q.remainingLocked()
		rate := q.rate
		if rate <= 0 {
			rate = q.hint
		}
		q.mu.Unlock()
		if rem == 0 {
			continue
		}
		if rate <= 0 {
			rate = 1
		}
		cands = append(cands, cand{i, float64(rem) / rate})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].drain > cands[b].drain })
	me := s.queues[thief]
	for _, c := range cands {
		v := s.queues[c.idx]
		v.mu.Lock()
		if len(v.ranges) == 0 {
			v.mu.Unlock()
			continue
		}
		r := &v.ranges[len(v.ranges)-1]
		mid := r.lo + (r.hi-r.lo)/2
		stolen := span{mid, r.hi}
		if mid == r.lo {
			// Single-task range: take it whole.
			v.ranges = v.ranges[:len(v.ranges)-1]
		} else {
			r.hi = mid
		}
		v.mu.Unlock()
		me.mu.Lock()
		me.ranges = append(me.ranges, stolen)
		me.mu.Unlock()
		s.steals.Add(1)
		s.stolen.Add(int64(stolen.hi - stolen.lo))
		s.tun.Metrics.Steal(me.name, v.name, stolen.hi-stolen.lo)
		return true
	}
	return false
}

// Observe feeds one completed chunk (n tasks in dur on device dev) into the
// device's throughput EWMA and retunes its chunk size toward
// targetChunkTime. Called from the account path of every device lane.
func (s *Scheduler) Observe(dev, n int, dur time.Duration) {
	if n <= 0 {
		return
	}
	q := s.queues[dev]
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
	if !s.tun.DisableRetune {
		want := min(max(int(rate*targetChunkTime.Seconds()), minChunk), maxChunk)
		// Retune only on a ≥ 25% move so the chunk size does not thrash on
		// measurement noise.
		if diff := want - q.chunk; 4*diff >= q.chunk || -4*diff >= q.chunk {
			q.chunk = want
			retuned = want
		}
	}
	q.mu.Unlock()
	if retuned > 0 {
		s.retunes.Add(1)
		s.tun.Metrics.Retune(q.name, retuned)
	}
	s.tun.Metrics.Rate(q.name, rate)
}

// ChunkSize reports the queue's current tuned grab size (for tests and the
// experiments report).
func (s *Scheduler) ChunkSize(dev int) int {
	q := s.queues[dev]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.chunk
}

// Remaining reports how many tasks are still queued (not yet grabbed) for
// device dev.
func (s *Scheduler) Remaining(dev int) int {
	q := s.queues[dev]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remainingLocked()
}
