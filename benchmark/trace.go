package main

import (
	"io"
	"sort"
	"sync"
	"time"

	"skycube/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Layers are named after the repository's modules.
type span struct {
	layer, name string
	start, end  time.Duration // offsets from the tracer's epoch
	parent      int           // index of the span that caused this one, -1 for a root
	op          int           // spans of one operation share it
}

// tracer keeps spans in memory until the run ends. A nil *tracer is valid
// everywhere and records nothing, so the untraced run takes the same code
// path without the cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, name: name, start: now, end: -1, parent: parent, op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	d := now - t.spans[id].start
	t.mu.Unlock()
	return d
}

// do records fn as one span.
func (t *tracer) do(layer, name string, parent, op int, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	id := t.begin(layer, name, parent, op)
	fn()
	return t.end(id)
}

// roots is a stage's root span as stageSpan keeps it (none on a nil tracer).
func (t *tracer) roots(root int) []int {
	if t == nil {
		return nil
	}
	return []int{root}
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if out[i].end < out[i].start { // still open: close at its start so it weighs nothing
			out[i].end = out[i].start
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Children may overlap each other (parallel shard
// calls, parallel cuboids), so their union is taken, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, upTo := time.Duration(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < upTo {
				lo = upTo
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = (s.end - s.start) - covered
	}
	return self
}

// layerSelf sums self time per layer over the spans below root (root
// included), in seconds.
func layerSelf(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	under := make([]bool, len(spans))
	under[root] = true
	out := map[string]float64{}
	for i := root; i < len(spans); i++ { // a child is always recorded after its parent
		if p := spans[i].parent; i != root && (p < 0 || !under[p]) {
			continue
		}
		under[i] = true
		out[spans[i].layer] += self[i].Seconds()
	}
	return out
}

// sumChildren totals the durations of parent's child spans and counts them.
func sumChildren(spans []span, parent int) (total time.Duration, n int) {
	for _, s := range spans[parent+1:] { // a child is always recorded after its parent
		if s.parent == parent {
			total += s.end - s.start
			n++
		}
	}
	return total, n
}

// writeChrome writes the spans as a Chrome trace, one track per layer.
func writeChrome(w io.Writer, spans []span) error {
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		out[i] = obs.Span{Track: s.layer, Cat: s.layer, Name: s.name,
			Start: s.start, Dur: s.end - s.start, N: int64(s.op)}
	}
	return obs.WriteChromeSpans(w, out)
}
