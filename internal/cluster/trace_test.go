// End-to-end tests for distributed request tracing: traceparent propagation
// coordinator -> shard, the ?explain=1 breakdown, the /trace/query Chrome
// export, and the slow-query log.
package cluster

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"skycube"
	"skycube/internal/obs"
)

// tracedCluster builds a K=2, R=1 cluster where the coordinator and every
// shard have their own request ring. SampleEvery stays 0: only requests
// carrying a traceparent header (or ?explain=1) are traced, which is also
// the configuration under which the hot path must stay allocation-free.
type tracedCluster struct {
	*testCluster
	coordRing  *obs.RequestRing
	shardRings map[int]*obs.RequestRing // shard index -> ring
}

func newTracedCluster(t *testing.T, copt CoordinatorOptions) *tracedCluster {
	t.Helper()
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 400, 4, 61)
	tc := &tracedCluster{
		coordRing:  obs.NewRequestRing(64),
		shardRings: map[int]*obs.RequestRing{},
	}
	copt.Requests = tc.coordRing
	if copt.Timeout == 0 {
		copt.Timeout = 5 * time.Second
	}
	tc.testCluster = newTestClusterOpts(t, ds, 2, 1, skycube.RoundRobinPartition, copt,
		func(shard, replica int, so *ShardOptions) {
			ring := obs.NewRequestRing(64)
			tc.shardRings[shard] = ring
			so.Requests = ring
		})
	return tc
}

func traceRequest(path, traceparent string) *http.Request {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	return req
}

func eventKinds(snap obs.RecordSnapshot) map[string]int {
	kinds := map[string]int{}
	for _, e := range snap.Events {
		kinds[e.Kind]++
	}
	return kinds
}

func TestTracePropagationAcrossCluster(t *testing.T) {
	tc := newTracedCluster(t, CoordinatorOptions{})
	trace := obs.NewTraceID()
	tp := obs.Traceparent(trace, obs.NewSpanID())

	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1,2", tp))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced query: status %d: %s", rec.Code, rec.Body.String())
	}

	// The coordinator hop: recorded under the incoming trace id, with the
	// full scatter visible as typed events.
	root := tc.coordRing.Find(trace.String())
	if root == nil {
		t.Fatal("coordinator ring has no record for the propagated trace id")
	}
	snap := root.Snapshot()
	if snap.Kind != "coordinator" || snap.InFlight || snap.Status != http.StatusOK {
		t.Fatalf("coordinator hop = kind %q in_flight %v status %d", snap.Kind, snap.InFlight, snap.Status)
	}
	kinds := eventKinds(snap)
	if kinds[obs.EvAttempt] < 2 || kinds[obs.EvShardResult] != 2 ||
		kinds[obs.EvMerge] != 1 || kinds[obs.EvEncode] != 1 || kinds[obs.EvCache] == 0 {
		t.Fatalf("coordinator events incomplete: %v", kinds)
	}

	// Every shard hop: same trace id, kind "shard", cuboid extraction timed.
	for s, ring := range tc.shardRings {
		hop := ring.Find(trace.String())
		if hop == nil {
			t.Fatalf("shard %d ring has no record for the propagated trace id", s)
		}
		hs := hop.Snapshot()
		if hs.Kind != "shard" || hs.Path != "/shard/cuboid" {
			t.Fatalf("shard %d hop = kind %q path %q", s, hs.Kind, hs.Path)
		}
		if eventKinds(hs)[obs.EvCuboid] != 1 {
			t.Fatalf("shard %d hop has no cuboid event: %+v", s, hs.Events)
		}
	}

	// With SampleEvery 0, a header-less query must NOT be recorded.
	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1,2", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("untraced query: status %d", rec.Code)
	}
	if got := len(tc.coordRing.Snapshot("", 0)); got != 1 {
		t.Fatalf("sampled-out query was recorded: ring holds %d records, want 1", got)
	}
}

func TestExplainBreakdown(t *testing.T) {
	tc := newTracedCluster(t, CoordinatorOptions{})

	// Explain first, against a cold cache: the full scatter plus merge and
	// encode must appear in the breakdown.
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1,2&explain=1", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: status %d: %s", rec.Code, rec.Body.String())
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("explain Cache-Control = %q, want no-store", cc)
	}
	var ex explainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ex); err != nil {
		t.Fatalf("decode explain: %v", err)
	}
	if _, ok := obs.ParseTraceID(ex.TraceID); !ok {
		t.Errorf("explain trace_id %q does not parse", ex.TraceID)
	}
	if ex.Status != http.StatusOK || ex.Partial {
		t.Errorf("explain status=%d partial=%v, want 200/false", ex.Status, ex.Partial)
	}
	if len(ex.Shards) != 2 {
		t.Fatalf("explain shards = %d, want 2", len(ex.Shards))
	}
	var candSum int64
	for _, s := range ex.Shards {
		if s.Attempts < 1 || s.Err != "" {
			t.Errorf("shard %s: attempts=%d err=%q", s.Shard, s.Attempts, s.Err)
		}
		if s.Candidates <= 0 || s.Bytes <= 0 {
			t.Errorf("shard %s: candidates=%d bytes=%d, want both > 0", s.Shard, s.Candidates, s.Bytes)
		}
		if s.StartNS < 0 || s.DurNS <= 0 || s.StartNS+s.DurNS > ex.DurNS {
			t.Errorf("shard %s interval [%d, +%d] outside end-to-end %d", s.Shard, s.StartNS, s.DurNS, ex.DurNS)
		}
		candSum += s.Candidates
	}
	if ex.Candidates != candSum {
		t.Errorf("candidates %d != per-shard sum %d", ex.Candidates, candSum)
	}
	if len(ex.Attempts) < 2 {
		t.Fatalf("explain attempts = %d, want >= 2", len(ex.Attempts))
	}
	for _, a := range ex.Attempts {
		if a.StartNS < 0 || a.StartNS+a.DurNS > ex.DurNS {
			t.Errorf("attempt %s@%s interval [%d, +%d] outside end-to-end %d", a.Shard, a.Replica, a.StartNS, a.DurNS, ex.DurNS)
		}
	}
	if ex.Merge == nil || ex.Encode == nil {
		t.Fatalf("cold explain lost pipeline stages: merge=%v encode=%v", ex.Merge, ex.Encode)
	}
	if ex.Merge.StartNS+ex.Merge.DurNS > ex.DurNS || ex.Encode.StartNS+ex.Encode.DurNS > ex.DurNS {
		t.Errorf("merge/encode intervals outside end-to-end %d: %+v %+v", ex.DurNS, ex.Merge, ex.Encode)
	}
	if ex.Count <= 0 || int64(ex.Count) != ex.Merge.N {
		t.Errorf("count %d != merge n %d (or not positive)", ex.Count, ex.Merge.N)
	}

	// The answer explain reports must match the real endpoint's.
	resp := querySkyline(t, tc.coord, 0b0111, http.StatusOK)
	if resp.Count != ex.Count || resp.Candidates != int(ex.Candidates) {
		t.Errorf("explain count/candidates %d/%d != /skyline %d/%d",
			ex.Count, ex.Candidates, resp.Count, resp.Candidates)
	}
}

// TestExplainGoldenShape pins the explain JSON's field names and structure
// against a golden file, with volatile values (trace id, timings, byte
// sizes, epochs, replica URLs) normalized. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/cluster -run TestExplainGoldenShape
func TestExplainGoldenShape(t *testing.T) {
	tc := newTracedCluster(t, CoordinatorOptions{})
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1,2&explain=1", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("explain: status %d: %s", rec.Code, rec.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("decode explain: %v", err)
	}
	normalizeExplain(doc)
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "explain_shape.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("explain shape drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// normalizeExplain rewrites volatile values in a decoded explain document so
// the deterministic shape (field names, shard count, attempt structure,
// counts) can be compared byte-for-byte.
func normalizeExplain(v any) {
	switch node := v.(type) {
	case map[string]any:
		for k, val := range node {
			switch {
			case k == "trace_id":
				node[k] = "<trace>"
			case k == "replica":
				node[k] = "<url>"
			case strings.HasSuffix(k, "_ns"):
				if f, ok := val.(float64); ok && f != 0 {
					node[k] = 1
				}
			case k == "bytes" || k == "epoch":
				if f, ok := val.(float64); ok && f != 0 {
					node[k] = 1
				}
			default:
				normalizeExplain(val)
			}
		}
	case []any:
		for _, item := range node {
			normalizeExplain(item)
		}
	}
}

func TestTraceQueryChromeExport(t *testing.T) {
	tc := newTracedCluster(t, CoordinatorOptions{})
	trace := obs.NewTraceID()
	tp := obs.Traceparent(trace, obs.NewSpanID())

	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1,2", tp))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced query: status %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/trace/query?id="+trace.String(), ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace/query: status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, trace.String()) {
		t.Errorf("Content-Disposition = %q, want filename with trace id", cd)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &file); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	// Track names come from thread_name metadata events: the coordinator
	// track plus one per contacted shard replica.
	var tracks []string
	var spanNames []string
	for _, e := range file.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "thread_name":
			if name, ok := e.Args["name"].(string); ok {
				tracks = append(tracks, name)
			}
		case e.Ph == "X":
			spanNames = append(spanNames, e.Name)
		}
	}
	sort.Strings(tracks)
	hasTrack := func(prefix string) bool {
		for _, tr := range tracks {
			if strings.HasPrefix(tr, prefix) {
				return true
			}
		}
		return false
	}
	if !hasTrack("coordinator") || !hasTrack("0 http") || !hasTrack("1 http") {
		t.Fatalf("trace export tracks = %v, want coordinator plus both shards", tracks)
	}
	var skylineSpans, cuboidSpans int
	for _, n := range spanNames {
		if strings.Contains(n, "/skyline") {
			skylineSpans++
		}
		if strings.Contains(n, "/shard/cuboid") {
			cuboidSpans++
		}
	}
	if skylineSpans == 0 || cuboidSpans < 2 {
		t.Fatalf("trace export spans: %d /skyline, %d /shard/cuboid (want >=1 and >=2): %v",
			skylineSpans, cuboidSpans, spanNames)
	}

	// Error surface: malformed id, then a well-formed but unknown id.
	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/trace/query?id=nope", ""))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/trace/query?id="+obs.NewTraceID().String(), ""))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", rec.Code)
	}
}

func TestCoordinatorSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	tc := newTracedCluster(t, CoordinatorOptions{
		Logger:    log.New(&buf, "", 0),
		SlowQuery: time.Nanosecond, // every query is "slow"
	})
	trace := obs.NewTraceID()
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1", obs.Traceparent(trace, obs.NewSpanID())))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	line := buf.String()
	if !strings.Contains(line, "slow-query") || !strings.Contains(line, "path=/skyline") {
		t.Fatalf("slow-query line missing or malformed: %q", line)
	}
	if !strings.Contains(line, "trace="+trace.String()) {
		t.Fatalf("slow-query line lacks the trace id: %q", line)
	}

	// An unsampled (and untraced) slow query still logs, with trace=-.
	buf.Reset()
	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, traceRequest("/skyline?dims=0,1", ""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if line := buf.String(); !strings.Contains(line, "trace=-") {
		t.Fatalf("untraced slow-query line should carry trace=-: %q", line)
	}
}

// tracedFlush posts a traced routed /flush to tc's coordinator and returns
// the one cache event its record holds: the roll it fired.
func tracedFlush(t *testing.T, tc *tracedCluster) obs.Event {
	t.Helper()
	trace := obs.NewTraceID()
	req := httptest.NewRequest(http.MethodPost, "/flush", strings.NewReader("{}"))
	req.Header.Set(obs.TraceparentHeader, obs.Traceparent(trace, obs.NewSpanID()))
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced flush: status %d: %s", rec.Code, rec.Body)
	}
	hop := tc.coordRing.Find(trace.String())
	if hop == nil {
		t.Fatal("coordinator ring has no record of the traced flush")
	}
	snap := hop.Snapshot()
	if snap.Kind != "coordinator" || snap.Path != "/flush" || snap.Status != http.StatusOK {
		t.Fatalf("flush hop = kind %q path %q status %d", snap.Kind, snap.Path, snap.Status)
	}
	var rolls []obs.Event
	for _, e := range snap.Events {
		if e.Kind == obs.EvCache {
			rolls = append(rolls, e)
		}
	}
	if len(rolls) != 1 || !strings.HasPrefix(rolls[0].Detail, "roll-") {
		t.Fatalf("flush hop events %+v, want one roll", snap.Events)
	}
	return rolls[0]
}

// TestTraceFlushNamesItsRoll: a traced routed /flush records one cache event
// naming the roll it fired — "roll-all: " and its reason when it could not
// prove which subspaces changed, "roll-subspaces n" when it could.
func TestTraceFlushNamesItsRoll(t *testing.T) {
	tc := newTracedCluster(t, CoordinatorOptions{})
	if err := tc.coord.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	// The initial builds were made from no epoch: nothing to follow on.
	if ev := tracedFlush(t, tc); ev.Detail != "roll-all: no transition from shard 0" {
		t.Fatalf("first flush: %q", ev.Detail)
	}
	// One point per shard, below everything on dimension 0 and above
	// everything elsewhere: a member of the 8 subspaces holding dimension 0.
	postJSON(t, tc.coord, "/insert", insertRequest{Points: pointPerShard(tc.testCluster, func(i int) []float32 {
		return []float32{-1 - float32(i), 10, 10, 10 + float32(i)}
	})}, http.StatusOK)
	if ev := tracedFlush(t, tc); ev.Detail != "roll-subspaces 8" || ev.N != 8 {
		t.Fatalf("flush of two dimension-0 members: %q (n %d)", ev.Detail, ev.N)
	}
	// Nothing pending: each shard repeats the epoch the last roll covered,
	// which proves it changed nothing.
	if ev := tracedFlush(t, tc); ev.Detail != "roll-subspaces 0" || ev.N != 0 {
		t.Fatalf("empty flush: %q (n %d)", ev.Detail, ev.N)
	}
}
