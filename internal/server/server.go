// Package server exposes a materialised skycube over HTTP, turning the
// library into the small decision-support service the paper's introduction
// motivates: the expensive materialisation happens once at startup, after
// which every subspace skyline — any combination of criteria a user cares
// about — is a constant-time lookup.
//
// Endpoints (JSON unless noted):
//
//	GET /info                     dataset and skycube summary
//	GET /skyline?dims=0,2,5       skyline over the given dimensions
//	GET /membership?id=17         subspaces in which point 17 is a member
//	GET /buildinfo                how the cube was built (algorithm, timings, shares)
//	GET /metrics                  Prometheus text exposition of the registry
//	GET /trace                    Chrome trace_event JSON of the build trace
//	GET /healthz                  readiness probe (503 while unready) and serving epoch
//
// /metrics and /trace only exist when the Server is constructed with
// NewWith and the corresponding Options field is set. Every request flows
// through a middleware that records per-endpoint latency histograms and
// request counters into the same registry, and optionally logs.
//
// When Options.Updater is set the server runs in maintenance mode: reads
// resolve against the updater's latest MVCC snapshot — or an older epoch
// pinned with ?epoch=N while it remains in the history ring — and five
// more endpoints are mounted:
//
//	POST /insert                  {"points": [[...], ...]} → buffered ids
//	POST /delete                  {"ids": [...]} → tombstones buffered
//	POST /flush                   apply the buffered batch, publish an epoch
//	POST /compact                 fold the overlay into a fresh base
//	GET  /updates                 maintenance counters (delta.Stats)
//
// Mutation bodies are capped at MaxBodyBytes with http.MaxBytesReader.
//
// # Materialized read path
//
// /skyline and /membership responses are cached as fully-encoded JSON,
// keyed on (epoch, endpoint, request variant) and bounded by an LRU
// (Options.CacheEntries). Invalidation is epoch-advance only — a flush or
// compaction publishes a new epoch and thereby new keys — never TTL, so a
// cached response is provably the bytes the uncached path would produce.
// Every read response carries a strong ETag derived from (epoch, subspace)
// and honours If-None-Match with 304 Not Modified. Concurrent cold reads
// of one key are collapsed to a single computation (singleflight), and a
// cache hit writes pre-encoded bytes without allocating.
// Options.DisableCache turns the memoization off (the ETag/304 contract
// remains); pinned ?epoch=N reads are keyed under their pinned epoch, so
// they bypass the current-epoch fast path but still memoize exactly.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skycube"
	"skycube/internal/delta"
	"skycube/internal/obs"
	"skycube/internal/rcache"
	"skycube/internal/wal"
)

// BuildInfo describes how the served skycube was constructed; it is the
// /buildinfo payload.
type BuildInfo struct {
	Algorithm       string                `json:"algorithm"`
	Points          int                   `json:"points"`
	Dims            int                   `json:"dims"`
	MaxLevel        int                   `json:"max_level"`
	ElapsedSeconds  float64               `json:"elapsed_seconds"`
	Shares          []skycube.DeviceShare `json:"shares,omitempty"`
	GPUModelSeconds []float64             `json:"gpu_model_seconds,omitempty"`
}

// Options configure the optional observability surface of a Server.
type Options struct {
	// BuildInfo, if non-nil, enables GET /buildinfo.
	BuildInfo *BuildInfo
	// Metrics, if non-nil, enables GET /metrics and receives the request
	// middleware's counters and latency histograms. Sharing the registry
	// the build wrote into puts build and serving metrics on one page.
	Metrics *obs.Registry
	// Trace, if non-nil, enables GET /trace, serving the build trace as
	// Chrome trace_event JSON.
	Trace *obs.Trace
	// Logger, if non-nil, logs one line per request (method, path, status,
	// duration).
	Logger *log.Logger
	// Updater, if non-nil, switches the server into maintenance mode: the
	// cube and dataset passed to NewWith are ignored (and may be nil), reads
	// serve the updater's snapshots, and the mutation endpoints are mounted.
	Updater *skycube.Updater
	// CacheEntries bounds the materialized read-path cache (LRU);
	// 0 means rcache.DefaultEntries.
	CacheEntries int
	// DisableCache turns response memoization off entirely. Responses still
	// carry ETags and honour If-None-Match — only the server-side reuse of
	// encoded bytes is disabled.
	DisableCache bool
	// Requests, if non-nil, enables distributed request tracing: requests
	// carrying a traceparent header (propagated by the cluster coordinator)
	// and one in SampleEvery locally-initiated requests are recorded — with
	// typed span events from the layers they touch — into this ring, and
	// GET /debug/requests serves the ring as JSON. Requests that are
	// sampled out pay one header lookup and keep the warm-cache path
	// allocation-free.
	Requests *obs.RequestRing
	// SampleEvery admits one in N locally-initiated requests into tracing
	// (0 = trace only requests that arrive with a traceparent header).
	SampleEvery int
	// SlowQuery, when > 0, logs one structured line (with the trace id when
	// sampled) for every request at least this slow.
	SlowQuery time.Duration
	// TraceKind labels this server's hop records and its cache metrics'
	// layer ("" means "node"); the cluster shard sets "shard".
	TraceKind string
}

// MaxBodyBytes caps every mutation request body. The cluster coordinator
// checks each shard's re-encoded slice of an insert against it before it
// posts any, so a batch never fails half-applied on one shard's cap.
const MaxBodyBytes = 1 << 20

// Server wraps a built skycube and its dataset.
type Server struct {
	cube skycube.Skycube
	ds   *skycube.Dataset
	mux  *http.ServeMux
	opt  Options

	// cache is the materialized read path: fully-encoded responses keyed on
	// (epoch, request variant). nil when Options.DisableCache is set — a
	// nil rcache.Cache computes every request and stores nothing.
	cache *rcache.Cache
	cm    *obs.CacheMetrics
	// km folds the process-wide dominance-kernel counters into the registry
	// at /metrics scrape time; nil when metrics are off.
	km *obs.KernelMetrics

	// sampler admits locally-initiated requests into the request ring; nil
	// (never sampling) unless Options.SampleEvery is positive.
	sampler *obs.Sampler
	// traceKind labels this server's hop records ("node" by default).
	traceKind string

	// notReady (any bit set) makes /healthz report 503: bit 0 is the
	// caller-controlled SetReady latch, and busy counts in-flight
	// unready-making operations (compactions).
	notReady atomic.Bool
	busy     atomic.Int32

	// batchMu serialises batch-tagged (idempotent) inserts: a duplicate
	// arriving while the original is still applying waits and then replays
	// the reply the updater remembered, instead of racing it to a double
	// insert.
	batchMu sync.Mutex

	// wal is the updater's durability subsystem (nil when in-memory):
	// mutation acks block on wal.Commit.
	wal *wal.Store
}

// New builds a handler for a materialised skycube with no observability
// extras — the original three endpoints only.
func New(cube skycube.Skycube, ds *skycube.Dataset) *Server {
	return NewWith(cube, ds, Options{})
}

// NewWith builds a handler with the requested observability surface.
func NewWith(cube skycube.Skycube, ds *skycube.Dataset, opt Options) *Server {
	s := &Server{cube: cube, ds: ds, mux: http.NewServeMux(), opt: opt}
	s.traceKind = opt.TraceKind
	if s.traceKind == "" {
		s.traceKind = "node"
	}
	s.cm = obs.NewCacheMetrics(opt.Metrics, s.traceKind)
	s.km = obs.NewKernelMetrics(opt.Metrics)
	if !opt.DisableCache {
		s.cache = rcache.New(opt.CacheEntries, s.cm)
	}
	s.sampler = obs.NewSampler(opt.SampleEvery)
	if opt.Requests != nil {
		s.mux.Handle("/debug/requests", opt.Requests.Handler())
	}
	s.mux.HandleFunc("/info", s.handleInfo)
	s.mux.HandleFunc("/skyline", s.handleSkyline)
	s.mux.HandleFunc("/membership", s.handleMembership)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if opt.BuildInfo != nil {
		s.mux.HandleFunc("/buildinfo", s.handleBuildInfo)
	}
	if opt.Metrics != nil {
		s.mux.HandleFunc("/metrics", s.handleMetrics)
	}
	if opt.Trace != nil {
		s.mux.HandleFunc("/trace", s.handleTrace)
	}
	if opt.Updater != nil {
		s.mux.HandleFunc("/insert", s.handleInsert)
		s.mux.HandleFunc("/delete", s.handleDelete)
		s.mux.HandleFunc("/flush", s.handleFlush)
		s.mux.HandleFunc("/compact", s.handleCompact)
		s.mux.HandleFunc("/updates", s.handleUpdates)
		s.wal = opt.Updater.Store()
	}
	return s
}

// durableCommit blocks until every journaled record is durable under the
// WAL's fsync policy; a no-op for in-memory updaters. Mutation handlers
// call it at the acknowledgement point, so one fsync group-commits a whole
// request.
func (s *Server) durableCommit() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Commit()
}

// journalErr reports the WAL's sticky failure without any I/O; nil for
// in-memory updaters. /flush and /compact answer with it: the updater made
// its epoch marker durable before publishing and swallowed any error, and
// a second commit would only fsync records that other requests appended
// meanwhile, which their own acks commit.
func (s *Server) journalErr() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Err()
}

// Handle mounts an extra handler on the server's mux (e.g. pprof).
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// SetReady flips the caller-controlled half of the readiness probe — e.g. a
// shard node rebuilding its cube marks itself unready so load balancers and
// the cluster coordinator route around it. Servers start ready (NewWith is
// called with a finished cube).
func (s *Server) SetReady(ready bool) { s.notReady.Store(!ready) }

// Ready reports the current readiness: the SetReady latch and no in-flight
// compaction.
func (s *Server) Ready() bool { return !s.notReady.Load() && s.busy.Load() == 0 }

// healthResponse is the /healthz payload. Liveness is implied by any
// response at all; Ready distinguishes "up" from "able to serve correctly".
// A shard's durable frontier is on /shard/info, not here.
type healthResponse struct {
	Status string `json:"status"` // "ok" or "unavailable"
	Ready  bool   `json:"ready"`
	Mode   string `json:"mode"`            // "static" or "maintenance"
	Epoch  uint64 `json:"epoch,omitempty"` // serving epoch in maintenance mode
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	resp := healthResponse{Status: "ok", Ready: s.Ready(), Mode: "static"}
	if s.opt.Updater != nil {
		resp.Mode = "maintenance"
		resp.Epoch = s.opt.Updater.Current().Epoch()
	}
	if !resp.Ready {
		resp.Status = "unavailable"
		WriteJSONStatus(w, http.StatusServiceUnavailable, resp)
		return
	}
	WriteJSON(w, resp)
}

// statusWriter captures the response code and body byte count for the
// request middleware. It forwards the optional interfaces the bare wrapper
// would otherwise swallow: http.Flusher (so SSE/streaming handlers behind
// the middleware can push incremental writes) and io.ReaderFrom (so
// io.Copy-style responses keep the underlying writer's zero-copy path).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer's Flusher, if any, so streaming
// handlers are not silently buffered by the middleware.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom forwards to the underlying writer's io.ReaderFrom (sendfile and
// friends), falling back to a plain copy that deliberately bypasses this
// wrapper's own ReadFrom.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		n, err := rf.ReadFrom(src)
		w.bytes += n
		return n, err
	}
	n, err := io.Copy(struct{ io.Writer }{w.ResponseWriter}, src)
	w.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler: the middleware around the mux. The
// bare configuration — no metrics, no logger, no slow-query threshold, and
// this request not sampled into the trace ring — is a straight passthrough,
// preserving the warm-cache 0-alloc serving path.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var rec *obs.ReqRecord
	if s.opt.Requests != nil {
		if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
			if trace, _, ok := obs.ParseTraceparent(tp); ok {
				rec = obs.NewRecord(s.traceKind, trace, r.Method, r.URL.Path, r.URL.RawQuery)
			}
		}
		if rec == nil && s.sampler.Sample() {
			rec = obs.NewRecord(s.traceKind, obs.NewTraceID(), r.Method, r.URL.Path, r.URL.RawQuery)
		}
	}
	if rec == nil && s.opt.Metrics == nil && s.opt.Logger == nil && s.opt.SlowQuery <= 0 {
		s.mux.ServeHTTP(w, r)
		return
	}
	if rec != nil {
		s.opt.Requests.Add(rec)
		r = r.WithContext(obs.WithRecord(r.Context(), rec))
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	dur := time.Since(start)
	rec.Finish(sw.status)
	path := r.URL.Path
	if s.opt.Metrics != nil {
		s.opt.Metrics.CounterM("http_requests_total", "HTTP requests served.",
			"path", path, "code", strconv.Itoa(sw.status)).Inc()
		s.opt.Metrics.HistogramM("http_request_duration_seconds",
			"HTTP request latency.", nil, "path", path).
			ObserveExemplar(dur.Seconds(), rec.TraceID())
		s.opt.Metrics.CounterM("http_response_bytes_total",
			"HTTP response body bytes written.", "path", path).Add(float64(sw.bytes))
	}
	if s.opt.SlowQuery > 0 && dur >= s.opt.SlowQuery {
		LogSlow(s.opt.Logger, r, sw.status, dur, s.opt.SlowQuery, rec.TraceID())
	}
	if s.opt.Logger != nil {
		s.opt.Logger.Printf("%s %s %d %s", r.Method, r.URL.RequestURI(), sw.status, dur)
	}
}

// LogSlow emits the slow-query log line to logger (the standard logger when
// nil): one structured line per offending request, carrying the trace id
// when the request was sampled so the corresponding /debug/requests record
// (and /trace/query timeline) is one lookup away.
func LogSlow(logger *log.Logger, r *http.Request, status int, dur, threshold time.Duration, traceID string) {
	if traceID == "" {
		traceID = "-"
	}
	line := fmt.Sprintf("slow-query method=%s path=%s query=%q status=%d dur=%s threshold=%s trace=%s",
		r.Method, r.URL.Path, r.URL.RawQuery, status, dur, threshold, traceID)
	if logger != nil {
		logger.Print(line)
		return
	}
	log.Print(line)
}

// AllowMethod guards a handler's verb: on mismatch it answers 405 with the
// Allow header RFC 9110 §15.5.6 requires, so clients learn the right verb
// instead of guessing.
func AllowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	http.Error(w, fmt.Sprintf("method %s not allowed (use %s)", r.Method, method),
		http.StatusMethodNotAllowed)
	return false
}

// view is what one read request resolves against: the static cube the
// server was built with, or one MVCC snapshot pinned for the request's
// duration. Pinning is just holding the value — the writer is never
// blocked, and every answer within the request is from a single epoch.
type view struct {
	cube  skycube.Skycube
	snap  skycube.Snapshot // nil in static mode
	epoch uint64           // 0 in static mode
}

// points returns how many points the view serves (live points in
// maintenance mode).
func (v view) points(s *Server) int {
	if v.snap != nil {
		return v.snap.Live()
	}
	return s.ds.Len()
}

// idBound returns the exclusive upper bound on addressable point ids.
func (v view) idBound(s *Server) int {
	if v.snap != nil {
		return v.snap.Len()
	}
	return s.ds.Len()
}

// point returns the coordinates of id.
func (v view) point(s *Server, id int32) []float32 {
	if v.snap != nil {
		return v.snap.Point(id)
	}
	return s.ds.Point(int(id))
}

// resolveView picks the cube a read request is answered from, honouring
// ?epoch=N in maintenance mode. A false return means the response has
// already been written.
func (s *Server) resolveView(w http.ResponseWriter, r *http.Request) (view, bool) {
	espec := r.URL.Query().Get("epoch")
	if s.opt.Updater == nil {
		if espec != "" {
			http.Error(w, "epoch parameter requires a server in maintenance mode",
				http.StatusBadRequest)
			return view{}, false
		}
		return view{cube: s.cube}, true
	}
	var snap skycube.Snapshot
	if espec != "" {
		e, err := strconv.ParseUint(espec, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad epoch %q", espec), http.StatusBadRequest)
			return view{}, false
		}
		var ok bool
		if snap, ok = s.opt.Updater.At(e); !ok {
			http.Error(w, fmt.Sprintf("epoch %d is not addressable (evicted from the history ring or not yet published)", e),
				http.StatusGone)
			return view{}, false
		}
	} else {
		snap = s.opt.Updater.Current()
	}
	return view{cube: snap, snap: snap, epoch: snap.Epoch()}, true
}

// DecodeBody decodes a JSON mutation body into v under the MaxBodyBytes
// cap, answering 413 past the cap and 400 for a malformed body or an
// unknown field. A false return means the response has already been
// written.
func DecodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// infoResponse is the /info payload.
type infoResponse struct {
	Points    int    `json:"points"`
	Dims      int    `json:"dims"`
	Subspaces int    `json:"subspaces"`
	MaxLevel  int    `json:"max_level"`
	StoredIDs int    `json:"stored_ids"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	v, ok := s.resolveView(w, r)
	if !ok {
		return
	}
	WriteJSON(w, infoResponse{
		Points:    v.points(s),
		Dims:      v.cube.Dims(),
		Subspaces: len(skycube.AllSubspaces(v.cube.Dims())),
		MaxLevel:  v.cube.MaxLevel(),
		StoredIDs: v.cube.IDCount(),
		Epoch:     v.epoch,
	})
}

func (s *Server) handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	WriteJSON(w, s.opt.BuildInfo)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	ServeMetrics(w, r, s.opt.Metrics, s.km)
}

// ServeMetrics writes reg as the Prometheus text exposition, after folding
// the process-wide dominance-kernel counters into km's families.
func ServeMetrics(w http.ResponseWriter, r *http.Request, reg *obs.Registry, km *obs.KernelMetrics) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ks := skycube.KernelStats()
	km.Sync(ks.Impl, ks.BlockSweeps, ks.StopPointExits)
	// Exemplars use OpenMetrics syntax that classic text-format parsers
	// reject, so they are opt-in per scrape.
	if r.URL.Query().Get("exemplars") == "1" {
		_ = reg.WritePrometheusExemplars(w)
		return
	}
	_ = reg.WritePrometheus(w)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.opt.Trace.WriteChrome(w)
}

// skylineResponse is the /skyline payload.
type skylineResponse struct {
	Dims     []int       `json:"dims"`
	Subspace uint32      `json:"subspace"`
	Count    int         `json:"count"`
	IDs      []int32     `json:"ids"`
	Points   [][]float32 `json:"points,omitempty"`
	Epoch    uint64      `json:"epoch,omitempty"`
}

// currentEpoch returns the epoch an unpinned read would serve right now:
// the updater's latest published epoch, or 0 for an immutable static cube.
func (s *Server) currentEpoch() uint64 {
	if s.opt.Updater != nil {
		return s.opt.Updater.Current().Epoch()
	}
	return 0
}

// cacheable reports whether the request may take the current-epoch fast
// path: GET with no pinned epoch (pinned reads resolve their own key in
// the slow path, where the epoch parameter has been parsed).
func cacheable(r *http.Request) bool {
	return r.Method == http.MethodGet && !strings.Contains(r.URL.RawQuery, "epoch=")
}

// traceCache records the cache disposition of a read on the request's trace
// record, if it carries one. Untraced requests pay a single context lookup.
func traceCache(r *http.Request, detail string) {
	if rec := obs.RecordFrom(r.Context()); rec != nil {
		rec.Event(obs.Event{Kind: obs.EvCache, Detail: detail, Start: rec.Since()})
	}
}

// encodeEntry marshals v and wraps it with the strong validator for
// (epoch, tag) — the fill function of every cached read endpoint.
func encodeEntry(epoch uint64, tag string, v interface{}) (*rcache.Entry, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return rcache.NewEntry(fmt.Sprintf(`"e%d-%s"`, epoch, tag), buf.Bytes()), nil
}

// ParseDims parses the dims=0,2,5 query parameter against dimensionality d,
// returning the dims, the subspace, and "" or the 400 message.
func ParseDims(spec string, d int) ([]int, skycube.Subspace, string) {
	if spec == "" {
		return nil, 0, "missing dims parameter (e.g. dims=0,2,5)"
	}
	var dims []int
	var delta skycube.Subspace
	for _, part := range strings.Split(spec, ",") {
		dim, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || dim < 0 || dim >= d {
			return nil, 0, fmt.Sprintf("bad dimension %q (need 0..%d)", part, d-1)
		}
		if delta&skycube.SubspaceOf(dim) != 0 {
			return nil, 0, fmt.Sprintf("duplicate dimension %d in dims=%s", dim, spec)
		}
		dims = append(dims, dim)
		delta |= skycube.SubspaceOf(dim)
	}
	return dims, delta, ""
}

func (s *Server) handleSkyline(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	if s.cache != nil && cacheable(r) {
		if e, ok := s.cache.Get(rcache.Key{Epoch: s.currentEpoch(), Path: r.URL.Path, Variant: r.URL.RawQuery}); ok {
			traceCache(r, "hit")
			rcache.Serve(w, r, e, s.cm)
			return
		}
	}
	traceCache(r, "miss")
	v, ok := s.resolveView(w, r)
	if !ok {
		return
	}
	dims, delta, errMsg := ParseDims(r.URL.Query().Get("dims"), v.cube.Dims())
	if errMsg != "" {
		http.Error(w, errMsg, http.StatusBadRequest)
		return
	}
	if skycube.SubspaceSize(delta) > v.cube.MaxLevel() {
		http.Error(w, fmt.Sprintf("subspace has %d dimensions but only levels ≤ %d are materialised",
			skycube.SubspaceSize(delta), v.cube.MaxLevel()), http.StatusUnprocessableEntity)
		return
	}
	withPoints := r.URL.Query().Get("points") == "true"
	// Fill under the view's epoch — the epoch of the body — so the entry,
	// its ETag, and its payload can never disagree. Concurrent cold readers
	// of the same key coalesce into one extraction and one encode.
	e, err := s.cache.Fill(rcache.Key{Epoch: v.epoch, Path: r.URL.Path, Variant: r.URL.RawQuery},
		func() (*rcache.Entry, error) {
			ids := v.cube.Skyline(delta)
			resp := skylineResponse{Dims: dims, Subspace: delta, Count: len(ids), IDs: ids, Epoch: v.epoch}
			if withPoints {
				resp.Points = make([][]float32, len(ids))
				for i, id := range ids {
					resp.Points[i] = v.point(s, id)
				}
			}
			return encodeEntry(v.epoch, fmt.Sprintf("s%d", delta), resp)
		})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rcache.Serve(w, r, e, s.cm)
}

// membershipResponse is the /membership payload.
type membershipResponse struct {
	ID        int32    `json:"id"`
	Subspaces []uint32 `json:"subspaces"`
	DimLists  [][]int  `json:"dim_lists"`
	Alive     *bool    `json:"alive,omitempty"`
	Epoch     uint64   `json:"epoch,omitempty"`
}

func (s *Server) handleMembership(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	if s.cache != nil && cacheable(r) {
		if e, ok := s.cache.Get(rcache.Key{Epoch: s.currentEpoch(), Path: r.URL.Path, Variant: r.URL.RawQuery}); ok {
			traceCache(r, "hit")
			rcache.Serve(w, r, e, s.cm)
			return
		}
	}
	traceCache(r, "miss")
	v, ok := s.resolveView(w, r)
	if !ok {
		return
	}
	idSpec := r.URL.Query().Get("id")
	id, err := strconv.Atoi(idSpec)
	if err != nil || id < 0 || id >= v.idBound(s) {
		http.Error(w, fmt.Sprintf("bad id %q (need 0..%d)", idSpec, v.idBound(s)-1),
			http.StatusBadRequest)
		return
	}
	e, err := s.cache.Fill(rcache.Key{Epoch: v.epoch, Path: r.URL.Path, Variant: r.URL.RawQuery},
		func() (*rcache.Entry, error) {
			subspaces := v.cube.Membership(int32(id))
			resp := membershipResponse{ID: int32(id), Subspaces: subspaces, DimLists: make([][]int, len(subspaces)), Epoch: v.epoch}
			if v.snap != nil {
				alive := v.snap.Alive(int32(id))
				resp.Alive = &alive
			}
			for i, delta := range subspaces {
				resp.DimLists[i] = skycube.SubspaceDims(delta)
			}
			return encodeEntry(v.epoch, fmt.Sprintf("m%d", id), resp)
		})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	rcache.Serve(w, r, e, s.cm)
}

// insertRequest is the POST /insert body; insertResponse its payload. The
// returned ids are buffered — they become visible at the next /flush.
type insertRequest struct {
	Points [][]float32 `json:"points"`
	// Batch, when non-empty, makes the insert idempotent: a batch id seen
	// before replays the original response (status included) without
	// applying anything. The cluster coordinator tags every replica write
	// with one, so a retry after a timeout — where the first attempt may or
	// may not have been applied — cannot double-insert. The updater
	// remembers the replies (the last 4096) with its state, so they survive
	// restarts and reach replicas that catch up from this node's log.
	Batch string `json:"batch,omitempty"`
}

type insertResponse struct {
	IDs            []int32 `json:"ids"`
	PendingInserts int     `json:"pending_inserts"`
	PendingDeletes int     `json:"pending_deletes"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req insertRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		http.Error(w, `missing points (e.g. {"points": [[1,2,3]]})`, http.StatusBadRequest)
		return
	}
	if len(req.Batch) > delta.MaxBatchID {
		http.Error(w, fmt.Sprintf("batch id of %d bytes (at most %d)", len(req.Batch), delta.MaxBatchID), http.StatusBadRequest)
		return
	}
	replies := s.opt.Updater.Delta()
	if req.Batch != "" {
		s.batchMu.Lock()
		defer s.batchMu.Unlock()
		if rep, ok := replies.LookupBatch(req.Batch); ok {
			replayBatch(w, rep.Status, rep.Body)
			return
		}
	}
	ids := make([]int32, 0, len(req.Points))
	for i, p := range req.Points {
		id, err := s.opt.Updater.Insert(p)
		if err != nil {
			// Earlier points in the request stay buffered; report how far
			// the request got so the client can reconcile. Remembering the
			// failure keeps even a retried partial batch idempotent — the
			// buffered prefix is not re-applied.
			msg := fmt.Sprintf("point %d: %v (%d of %d points buffered)",
				i, err, len(ids), len(req.Points))
			if req.Batch != "" {
				// A journal failure only keeps this 400 from outliving a
				// restart; the reply is remembered either way.
				_ = replies.RememberBatch(req.Batch, http.StatusBadRequest, []byte(msg))
			}
			http.Error(w, msg, http.StatusBadRequest)
			return
		}
		ids = append(ids, id)
	}
	ins, del := s.opt.Updater.Pending()
	resp := insertResponse{IDs: ids, PendingInserts: ins, PendingDeletes: del}
	if req.Batch != "" {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		status, body := http.StatusOK, buf.Bytes()
		err := replies.RememberBatch(req.Batch, status, body)
		if err == nil {
			err = s.durableCommit()
		}
		if err != nil {
			// The inserts are buffered but not durably acknowledged.
			// Remember the failure under the batch id so a retry replays
			// this 500 instead of double-applying the points; the 500
			// already reports the journal's failure.
			status, body = http.StatusInternalServerError, []byte("durability failure: "+err.Error())
			_ = replies.RememberBatch(req.Batch, status, body)
		}
		replayBatch(w, status, body)
		return
	}
	if err := s.durableCommit(); err != nil {
		http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, resp)
}

// replayBatch writes a batch outcome, fresh or remembered.
func replayBatch(w http.ResponseWriter, status int, body []byte) {
	if status != http.StatusOK {
		http.Error(w, string(body), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// deleteRequest is the POST /delete body; deleteResponse its payload.
type deleteRequest struct {
	IDs []int32 `json:"ids"`
}

type deleteResponse struct {
	Deleted        int `json:"deleted"`
	PendingInserts int `json:"pending_inserts"`
	PendingDeletes int `json:"pending_deletes"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req deleteRequest
	if !DecodeBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		http.Error(w, `missing ids (e.g. {"ids": [17]})`, http.StatusBadRequest)
		return
	}
	for i, id := range req.IDs {
		if err := s.opt.Updater.Delete(id); err != nil {
			http.Error(w, fmt.Sprintf("id %d: %v (%d of %d deletes buffered)",
				id, err, i, len(req.IDs)), http.StatusBadRequest)
			return
		}
	}
	if err := s.durableCommit(); err != nil {
		http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
		return
	}
	ins, del := s.opt.Updater.Pending()
	WriteJSON(w, deleteResponse{Deleted: len(req.IDs), PendingInserts: ins, PendingDeletes: del})
}

// epochResponse is the /flush and /compact payload: the snapshot that now
// serves reads and, when it was made from an earlier epoch, how (its
// delta.Snapshot.Transition): From is that epoch and Changed the subspaces
// whose skyline differs between the two, as the hex number with bit δ−1 set
// for subspace δ ("0" for none). An empty flush answers with the current
// snapshot, so with the transition that made it.
type epochResponse struct {
	Epoch   uint64 `json:"epoch"`
	Live    int    `json:"live"`
	Overlay int    `json:"overlay"`
	From    uint64 `json:"from,omitempty"`
	Changed string `json:"changed,omitempty"`
}

// newEpochResponse describes snap, the snapshot a flush or compaction returned.
func (s *Server) newEpochResponse(snap skycube.Snapshot) epochResponse {
	resp := epochResponse{Epoch: snap.Epoch(), Live: snap.Live(), Overlay: s.opt.Updater.Stats().Overlay}
	if ds, ok := snap.(*delta.Snapshot); ok {
		if from, changed := ds.Transition(); from != 0 {
			resp.From, resp.Changed = from, changed.Hex()
		}
	}
	return resp
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodPost) {
		return
	}
	snap := s.opt.Updater.Flush()
	if err := s.journalErr(); err != nil {
		http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, s.newEpochResponse(snap))
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodPost) {
		return
	}
	// The rebuild makes the node unready for the probe's purposes: readers
	// still work (MVCC), but latency and memory are degraded, so probes
	// should steer traffic elsewhere until it completes.
	s.busy.Add(1)
	defer s.busy.Add(-1)
	snap := s.opt.Updater.Compact()
	if err := s.journalErr(); err != nil {
		http.Error(w, "durability failure: "+err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, s.newEpochResponse(snap))
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if !AllowMethod(w, r, http.MethodGet) {
		return
	}
	WriteJSON(w, s.opt.Updater.Stats())
}

// bufPool recycles encode buffers across requests; WriteJSONStatus copies the
// bytes out to the wire before returning its buffer, so pooling is safe.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// WriteJSON answers 200 with v as JSON.
func WriteJSON(w http.ResponseWriter, v interface{}) { WriteJSONStatus(w, http.StatusOK, v) }

// WriteJSONStatus encodes to a pooled buffer first so an encoding failure can
// still produce a clean 500: encoding straight to w would have committed the
// status and a partial body before the error surfaced.
func WriteJSONStatus(w http.ResponseWriter, status int, v interface{}) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer bufPool.Put(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(buf.Bytes())
}
