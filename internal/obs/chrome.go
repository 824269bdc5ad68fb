package obs

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace_event format ("X" complete
// events plus "M" metadata events naming the threads). The file loads into
// about://tracing or https://ui.perfetto.dev, rendering a device/worker
// timeline in the style of the paper's Figure 12.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome serialises the trace in Chrome trace_event JSON. Each track
// becomes one named thread of a single process; spans become complete
// ("X") events with microsecond timestamps relative to the trace epoch.
// A nil trace writes an empty (but valid) trace file.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		return WriteChromeSpans(w, nil)
	}
	return WriteChromeSpans(w, t.Spans())
}

// WriteChromeSpans serialises an explicit span list in Chrome trace_event
// JSON — the same rendering WriteChrome gives a build trace, but usable for
// spans assembled from elsewhere, such as the distributed request records
// stitched across coordinator and shard hops. Tracks become threads in
// order of first appearance; an empty or nil list writes a valid empty
// trace file.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	file := chromeFile{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	tid := map[string]int{}
	for _, s := range spans {
		if _, ok := tid[s.Track]; ok {
			continue
		}
		i := len(tid)
		tid[s.Track] = i + 1
		file.TraceEvents = append(file.TraceEvents,
			chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i + 1,
				Args: map[string]any{"name": s.Track}},
			chromeEvent{Name: "thread_sort_index", Ph: "M", PID: 1, TID: i + 1,
				Args: map[string]any{"sort_index": i}},
		)
	}
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name,
			Cat:  s.Cat,
			Ph:   "X",
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  tid[s.Track],
		}
		if s.N != 0 || len(s.Args) > 0 {
			ev.Args = map[string]any{}
			if s.N != 0 {
				ev.Args["n"] = s.N
			}
			for _, a := range s.Args {
				ev.Args[a.Name] = a.Value
			}
		}
		file.TraceEvents = append(file.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
