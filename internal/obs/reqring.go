package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request-level distributed tracing: each sampled request owns one
// ReqRecord — the hop's identity (trace/span id), its wall-clock interval,
// and a list of typed Events (replica attempts, hedges, retries, breaker
// rejections, cache dispositions, merge, encode) appended by whatever layer
// handles part of the request. Records are published into a bounded
// lock-free RequestRing the moment the request starts, so GET
// /debug/requests shows in-flight requests too, and a record is findable by
// trace id while its query is still fanning out.
//
// The ring is a power-of-two array of atomic pointers with a monotonically
// increasing write cursor: Add is an atomic increment plus a pointer store
// (no lock, no allocation beyond the record itself), old records are
// overwritten in FIFO order, and readers snapshot through the record's own
// mutex — an in-flight record's events are appended under that mutex, so a
// concurrent snapshot sees a consistent prefix.

// Event kinds. Strings rather than an enum so layers can mint new kinds
// without touching this package; sharing these constants keeps /debug and
// explain output consistent.
const (
	EvAttempt       = "attempt"        // one HTTP attempt against a replica
	EvHedge         = "hedge"          // hedge launched against a second replica
	EvRetry         = "retry"          // backoff retry launched
	EvBreakerReject = "breaker_reject" // no replica's breaker admitted a request
	EvShardResult   = "shard_result"   // shard reply acted on (N = candidates, Bytes = frame length; Err: why it failed)
	EvCache         = "cache"          // cache disposition (Detail: hit-*, miss, bypass)
	EvCuboid        = "cuboid"         // shard-local cuboid extraction (N = rows)
	EvMerge         = "merge"          // coordinator dominance-filter merge (N = kept; Detail: groups, label skips, sweeps)
	EvEncode        = "encode"         // response encode (Bytes = body length)
)

// Event is one typed, timed occurrence within a request. Start is the
// offset from the owning record's start; Dur may be zero for instantaneous
// events. All fields are optional except Kind.
type Event struct {
	Kind    string        `json:"kind"`
	Shard   string        `json:"shard,omitempty"`
	Replica string        `json:"replica,omitempty"`
	Detail  string        `json:"detail,omitempty"`
	Hedge   bool          `json:"hedge,omitempty"`
	Start   time.Duration `json:"start_ns"`
	Dur     time.Duration `json:"dur_ns,omitempty"`
	N       int64         `json:"n,omitempty"`
	Bytes   int64         `json:"bytes,omitempty"`
	Epoch   uint64        `json:"epoch,omitempty"`
	Err     string        `json:"error,omitempty"`
}

// ReqRecord is one hop's trace record. A nil *ReqRecord is valid everywhere
// and records nothing — untraced requests pay one nil test per would-be
// event, mirroring the nil-trace fast path of the build tracer.
type ReqRecord struct {
	traceID TraceID
	spanID  SpanID
	kind    string // "coordinator", "shard", "node"
	method  string
	path    string
	query   string
	start   time.Time

	mu     sync.Mutex
	events []Event
	status int
	dur    time.Duration
	done   bool
}

// NewRecord starts a hop record now. kind labels the serving layer; trace
// is the propagated id (mint with NewTraceID when this hop is the root).
// A fresh span id is minted for the hop.
func NewRecord(kind string, trace TraceID, method, path, query string) *ReqRecord {
	return &ReqRecord{
		traceID: trace,
		spanID:  NewSpanID(),
		kind:    kind,
		method:  method,
		path:    path,
		query:   query,
		start:   time.Now(),
	}
}

// TraceID returns the hop's trace id ("" for nil).
func (r *ReqRecord) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID.String()
}

// Traceparent renders the header value to propagate to the next hop
// ("" for nil).
func (r *ReqRecord) Traceparent() string {
	if r == nil {
		return ""
	}
	return Traceparent(r.traceID, r.spanID)
}

// Start returns the hop's wall-clock start (zero for nil).
func (r *ReqRecord) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Since returns the current offset from the record's start (0 for nil) —
// the Start value events should carry.
func (r *ReqRecord) Since() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// Event appends one event. Safe on nil and for concurrent use.
func (r *ReqRecord) Event(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Finish seals the record with the response status and total duration.
func (r *ReqRecord) Finish(status int) {
	if r == nil {
		return
	}
	d := time.Since(r.start)
	r.mu.Lock()
	r.status = status
	r.dur = d
	r.done = true
	r.mu.Unlock()
}

// Duration returns the sealed duration, or the live elapsed time while the
// request is still in flight.
func (r *ReqRecord) Duration() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return r.dur
	}
	return time.Since(r.start)
}

// RecordSnapshot is the JSON form of a record: what /debug/requests serves
// and what the coordinator's cross-process trace assembly consumes from
// shard rings.
type RecordSnapshot struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	Kind     string    `json:"kind"`
	Method   string    `json:"method"`
	Path     string    `json:"path"`
	Query    string    `json:"query,omitempty"`
	Status   int       `json:"status,omitempty"`
	InFlight bool      `json:"in_flight,omitempty"`
	Start    time.Time `json:"start"`
	// Dur is nanoseconds: the sealed duration, or elapsed-so-far in flight.
	Dur    time.Duration `json:"dur_ns"`
	Events []Event       `json:"events,omitempty"`
}

// Snapshot copies the record into its serialisable form. An in-flight
// record reports its elapsed time so far and InFlight true.
func (r *ReqRecord) Snapshot() RecordSnapshot {
	if r == nil {
		return RecordSnapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := RecordSnapshot{
		TraceID:  r.traceID.String(),
		SpanID:   r.spanID.String(),
		Kind:     r.kind,
		Method:   r.method,
		Path:     r.path,
		Query:    r.query,
		Status:   r.status,
		InFlight: !r.done,
		Start:    r.start,
		Dur:      r.dur,
		Events:   append([]Event(nil), r.events...),
	}
	if !r.done {
		s.Dur = time.Since(r.start)
	}
	return s
}

// RequestRing is the bounded ring of recent (and in-flight) request
// records. A nil ring is valid and records nothing.
type RequestRing struct {
	slots []atomic.Pointer[ReqRecord]
	mask  uint64
	pos   atomic.Uint64
}

// DefaultRingSize bounds a ring constructed with size ≤ 0.
const DefaultRingSize = 256

// NewRequestRing returns a ring holding the most recent `size` records
// (rounded up to a power of two; DefaultRingSize when ≤ 0).
func NewRequestRing(size int) *RequestRing {
	if size <= 0 {
		size = DefaultRingSize
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &RequestRing{slots: make([]atomic.Pointer[ReqRecord], n), mask: uint64(n - 1)}
}

// Add publishes a record (typically at request start, so in-flight requests
// are inspectable). No-op on a nil ring.
func (g *RequestRing) Add(rec *ReqRecord) {
	if g == nil || rec == nil {
		return
	}
	i := g.pos.Add(1) - 1
	g.slots[i&g.mask].Store(rec)
}

// Snapshot returns up to limit records, newest first (all resident records
// when limit ≤ 0). trace, when non-empty, filters to records of that trace
// id.
func (g *RequestRing) Snapshot(trace string, limit int) []RecordSnapshot {
	if g == nil {
		return nil
	}
	end := g.pos.Load()
	n := uint64(len(g.slots))
	if limit <= 0 || uint64(limit) > n {
		limit = int(n)
	}
	out := make([]RecordSnapshot, 0, limit)
	for i := uint64(0); i < n && len(out) < limit; i++ {
		rec := g.slots[(end-1-i)&g.mask].Load()
		if rec == nil {
			continue
		}
		if trace != "" && rec.traceID.String() != trace {
			continue
		}
		out = append(out, rec.Snapshot())
	}
	return out
}

// Find returns the most recent resident record with the given trace id, nil
// if none.
func (g *RequestRing) Find(trace string) *ReqRecord {
	if g == nil {
		return nil
	}
	end := g.pos.Load()
	for i := uint64(0); i < uint64(len(g.slots)); i++ {
		rec := g.slots[(end-1-i)&g.mask].Load()
		if rec != nil && rec.traceID.String() == trace {
			return rec
		}
	}
	return nil
}

// ringResponse is the /debug/requests payload.
type ringResponse struct {
	Requests []RecordSnapshot `json:"requests"`
}

// Handler serves the ring as JSON: GET /debug/requests[?trace=<32hex>]
// [&limit=N], newest first.
func (g *RequestRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed (use GET)", http.StatusMethodNotAllowed)
			return
		}
		q := r.URL.Query()
		limit := 0
		if l := q.Get("limit"); l != "" {
			v, err := strconv.Atoi(l)
			if err != nil || v < 0 {
				http.Error(w, "bad limit "+strconv.Quote(l), http.StatusBadRequest)
				return
			}
			limit = v
		}
		resp := ringResponse{Requests: g.Snapshot(q.Get("trace"), limit)}
		if resp.Requests == nil {
			resp.Requests = []RecordSnapshot{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
}

// DecodeRequests parses a /debug/requests body — the coordinator uses it to
// ingest shard hop records when assembling a cross-process trace.
func DecodeRequests(body []byte) ([]RecordSnapshot, error) {
	var resp ringResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Requests, nil
}

// recordKey is the context key carrying the request's ReqRecord.
type recordKey struct{}

// WithRecord stashes rec in ctx so lower layers (the fan-out client, cache
// lookups) can append events without signature changes.
func WithRecord(ctx context.Context, rec *ReqRecord) context.Context {
	return context.WithValue(ctx, recordKey{}, rec)
}

// RecordFrom returns the request's record, nil when the request is not
// traced. The nil return composes with ReqRecord's nil-safe methods: an
// untraced path costs a context lookup and a nil test.
func RecordFrom(ctx context.Context) *ReqRecord {
	rec, _ := ctx.Value(recordKey{}).(*ReqRecord)
	return rec
}

// SnapshotSpans converts a hop snapshot into build-tracer spans on the
// given track, offset by base (the hop's start relative to the root hop's
// start): one span covering the whole hop, plus one span per timed event.
// Feeding the spans of every hop of a trace into WriteChromeSpans yields
// the stitched cross-process timeline.
func SnapshotSpans(s RecordSnapshot, base time.Duration, track string) []Span {
	name := s.Method + " " + s.Path
	if s.Query != "" {
		name += "?" + s.Query
	}
	spans := []Span{{Track: track, Cat: CatServe, Name: name, Start: base, Dur: s.Dur}}
	for _, e := range s.Events {
		sp := Span{
			Track: track,
			Cat:   e.Kind,
			Name:  eventName(e),
			Start: base + e.Start,
			Dur:   e.Dur,
			N:     e.N,
		}
		spans = append(spans, sp)
	}
	return spans
}

// eventName derives a human-readable span name from an event's fields.
func eventName(e Event) string {
	name := e.Kind
	switch {
	case e.Replica != "":
		name += " " + e.Replica
	case e.Shard != "":
		name += " " + e.Shard
	}
	if e.Detail != "" {
		name += " [" + e.Detail + "]"
	}
	if e.Hedge {
		name += " (hedge)"
	}
	if e.Err != "" {
		name += " ERR"
	}
	return name
}
