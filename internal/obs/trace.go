// Package obs is the observability substrate of the skycube system: a
// dependency-free tracing and metrics library threaded through every build
// path (the templates, the lattice traversal, the device scheduler) and
// exposed over the HTTP server.
//
// The design constraints come from the hot paths it instruments:
//
//   - A *Trace may be nil, and every method is a nil-receiver no-op, so a
//     build without tracing pays only a pointer test per would-be span —
//     the "nil-trace fast path".
//   - Recording is lock-cheap under STSC/SDSC/MDMC concurrency: spans land
//     in one of 64 shards chosen by an atomic round-robin counter, so the
//     per-shard mutexes are nearly uncontended even with every core
//     pulling 64-point MDMC chunks.
//   - Timestamps are monotonic offsets from the trace epoch (time.Since on
//     the epoch's monotonic clock), so spans from concurrent goroutines
//     order correctly.
//
// Spans are typed by a category ("build", "level", "cuboid", "chunk",
// "prepare", …) and carry a track — the timeline lane they render on in
// the Chrome trace_event export (a device name such as "980-1", or a
// worker lane such as "cpu-3"). See chrome.go for the exporter and
// metrics.go for the counter/gauge/histogram registry.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories used across the build paths. They are plain strings so
// callers can mint new ones, but sharing these keeps exports consistent.
const (
	CatBuild   = "build"   // one span per skycube.Build call
	CatLevel   = "level"   // one span per lattice level barrier
	CatCuboid  = "cuboid"  // one span per cuboid computation
	CatChunk   = "chunk"   // one span per MDMC point-chunk grab
	CatPrepare = "prepare" // MDMC prologue phases (extended skyline, tree)
	CatServe   = "serve"   // HTTP request handling
)

// Span is one completed timed event.
type Span struct {
	// Track is the timeline lane (device or worker) the span belongs to.
	Track string
	// Cat is the span category (CatBuild, CatCuboid, …).
	Cat string
	// Name describes the unit of work ("δ=1011", "points[128,192)", …).
	Name string
	// Start is the offset from the trace epoch.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
	// N is an optional work count (points in a chunk, rows in a cuboid).
	N int64
	// Args are further named counts (a cuboid's output sizes and label
	// depth), exported with N in the Chrome trace's args.
	Args []SpanArg
}

// End returns the span's end offset from the trace epoch.
func (s Span) End() time.Duration { return s.Start + s.Dur }

const traceShards = 64 // power of two; shard index is a mask of a counter

type traceShard struct {
	mu    sync.Mutex
	spans []Span
	// Pad each shard to its own cache line so neighbouring shard locks do
	// not false-share.
	_ [40]byte
}

// Trace records spans for one build (or one server lifetime). The zero
// value is not usable; call New. A nil *Trace is valid everywhere and
// records nothing.
type Trace struct {
	epoch time.Time
	// clock, when non-nil, replaces time.Since(epoch) as the trace's time
	// source — injected by tests so timing assertions are deterministic
	// instead of sleep-based.
	clock  func() time.Duration
	rr     atomic.Uint32
	shards [traceShards]traceShard
}

// New returns an empty trace whose epoch is now.
func New() *Trace { return &Trace{epoch: time.Now()} }

// newWithClock returns a trace driven by the given time source instead of
// the wall clock (test use).
func newWithClock(clock func() time.Duration) *Trace {
	return &Trace{epoch: time.Now(), clock: clock}
}

// now returns the current offset from the epoch under the trace's clock.
func (t *Trace) now() time.Duration {
	if t.clock != nil {
		return t.clock()
	}
	return time.Since(t.epoch)
}

// Epoch returns the trace's time origin (zero for a nil trace).
func (t *Trace) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Now returns the current offset from the trace epoch, 0 for nil.
func (t *Trace) Now() time.Duration {
	if t == nil {
		return 0
	}
	return t.now()
}

// SpanArg is one named count of a span.
type SpanArg struct {
	Name  string
	Value int64
}

// SpanHandle is an in-flight span started by Begin. The zero value (what a
// nil trace hands out) is a no-op.
type SpanHandle struct {
	t     *Trace
	start time.Duration
	n     int64
	args  []SpanArg
	track string
	cat   string
	name  string
}

// Begin starts a span on the given track. The span is recorded when End is
// called. On a nil trace this is a no-op returning a no-op handle.
func (t *Trace) Begin(track, cat, name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, start: t.now(), track: track, cat: cat, name: name}
}

// SetN attaches a work count to the span before End.
func (h *SpanHandle) SetN(n int64) {
	if h.t != nil {
		h.n = n
	}
}

// SetArg attaches a named count to the span before End.
func (h *SpanHandle) SetArg(name string, v int64) {
	if h.t != nil {
		h.args = append(h.args, SpanArg{name, v})
	}
}

// End records the span. Safe on the zero handle.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.record(Span{
		Track: h.track, Cat: h.cat, Name: h.name,
		Start: h.start, Dur: h.t.now() - h.start, N: h.n, Args: h.args,
	})
}

// Record adds a span whose interval was measured by the caller: it ended
// now and lasted dur. This is the form the device scheduler uses — each
// device times its own kernel and reports the duration with its account
// callback, and the scheduler back-dates the span. No-op on nil.
func (t *Trace) Record(track, cat, name string, dur time.Duration, n int64) {
	if t == nil {
		return
	}
	end := t.now()
	start := end - dur
	if start < 0 {
		start = 0
	}
	t.record(Span{Track: track, Cat: cat, Name: name, Start: start, Dur: end - start, N: n})
}

func (t *Trace) record(s Span) {
	sh := &t.shards[t.rr.Add(1)&(traceShards-1)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// Len returns the number of recorded spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].spans)
		t.shards[i].mu.Unlock()
	}
	return n
}

// Spans returns a copy of all recorded spans sorted by start time (ties by
// track, then name). Nil trace returns nil.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.shards {
		t.shards[i].mu.Lock()
		out = append(out, t.shards[i].spans...)
		t.shards[i].mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		if out[a].Track != out[b].Track {
			return out[a].Track < out[b].Track
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// Tracks returns the distinct track names in recording order of first
// appearance within the sorted span list.
func (t *Trace) Tracks() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range t.Spans() {
		if !seen[s.Track] {
			seen[s.Track] = true
			out = append(out, s.Track)
		}
	}
	return out
}

// Coverage returns the fraction of [0, total] covered by the union of the
// spans in the given category (all categories if cat is ""). It is the
// acceptance measure for "spans cover ≥ 99% of Stats.Elapsed".
func (t *Trace) Coverage(cat string, total time.Duration) float64 {
	if t == nil || total <= 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range t.Spans() {
		if cat != "" && s.Cat != cat {
			continue
		}
		ivs = append(ivs, iv{s.Start, s.End()})
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, hi time.Duration
	hi = -1
	for _, v := range ivs {
		a, b := v.a, v.b
		if b > total {
			b = total
		}
		if a < hi {
			a = hi
		}
		if b > a {
			covered += b - a
		}
		if v.b > hi {
			hi = v.b
		}
	}
	return float64(covered) / float64(total)
}
