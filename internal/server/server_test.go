package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"skycube"
	"skycube/internal/obs"
)

func newTestServer(t *testing.T, maxLevel int) (*Server, skycube.Skycube, *skycube.Dataset) {
	t.Helper()
	ds, err := skycube.DatasetFromRows([][]float32{
		{12.20, 17, 120},
		{9.00, 12, 148},
		{8.20, 13, 169},
		{21.25, 3, 186},
		{21.25, 5, 196},
	})
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := skycube.Build(ds, skycube.Options{
		Algorithm: skycube.MDMC, Threads: 2, MaxLevel: maxLevel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(cube, ds), cube, ds
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestInfo(t *testing.T) {
	s, cube, _ := newTestServer(t, 0)
	rec := get(t, s, "/info")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp infoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Points != 5 || resp.Dims != 3 || resp.Subspaces != 7 || resp.MaxLevel != 3 {
		t.Errorf("info = %+v", resp)
	}
	if resp.StoredIDs != cube.IDCount() {
		t.Errorf("stored ids %d != %d", resp.StoredIDs, cube.IDCount())
	}
}

func TestSkylineQuery(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	rec := get(t, s, "/skyline?dims=0,1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp skylineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// S3 {Arrival, Duration} = {f1, f2, f3}.
	if !reflect.DeepEqual(resp.IDs, []int32{1, 2, 3}) || resp.Count != 3 || resp.Subspace != 3 {
		t.Errorf("skyline = %+v", resp)
	}
	if resp.Points != nil {
		t.Error("points should be omitted unless requested")
	}
}

func TestSkylineQueryWithPoints(t *testing.T) {
	s, _, ds := newTestServer(t, 0)
	rec := get(t, s, "/skyline?dims=2&points=true")
	var resp skylineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// S4 {Price} = {f0}.
	if !reflect.DeepEqual(resp.IDs, []int32{0}) {
		t.Fatalf("skyline = %+v", resp)
	}
	if len(resp.Points) != 1 || resp.Points[0][2] != ds.Point(0)[2] {
		t.Errorf("points = %v", resp.Points)
	}
}

func TestSkylineQueryErrors(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	for path, want := range map[string]int{
		"/skyline":           http.StatusBadRequest, // no dims
		"/skyline?dims=":     http.StatusBadRequest,
		"/skyline?dims=9":    http.StatusBadRequest, // out of range
		"/skyline?dims=a":    http.StatusBadRequest,
		"/skyline?dims=0,,1": http.StatusBadRequest,
	} {
		if rec := get(t, s, path); rec.Code != want {
			t.Errorf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/skyline?dims=0", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d", rec.Code)
	}
}

func TestSkylineAboveMaxLevel(t *testing.T) {
	s, _, _ := newTestServer(t, 2)
	if rec := get(t, s, "/skyline?dims=0,1"); rec.Code != http.StatusOK {
		t.Errorf("2-d query on level-2 cube: status %d", rec.Code)
	}
	if rec := get(t, s, "/skyline?dims=0,1,2"); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("3-d query on level-2 cube: status %d", rec.Code)
	}
}

func TestMembershipQuery(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	rec := get(t, s, "/membership?id=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp membershipResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// f4 is in no subspace skyline.
	if len(resp.Subspaces) != 0 {
		t.Errorf("f4 membership = %v, want none", resp.Subspaces)
	}
	rec = get(t, s, "/membership?id=2")
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// f2 ∈ S1, S3, S5, S7.
	if !reflect.DeepEqual(resp.Subspaces, []uint32{1, 3, 5, 7}) {
		t.Errorf("f2 membership = %v, want [1 3 5 7]", resp.Subspaces)
	}
	if len(resp.DimLists) != 4 || !reflect.DeepEqual(resp.DimLists[1], []int{0, 1}) {
		t.Errorf("dim lists = %v", resp.DimLists)
	}
}

func TestMembershipErrors(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	for _, path := range []string{"/membership", "/membership?id=-1", "/membership?id=99", "/membership?id=x"} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestSkylineDuplicateDims(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	for _, path := range []string{"/skyline?dims=1,1", "/skyline?dims=0,2,0"} {
		if rec := get(t, s, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
	// Distinct dims still work.
	if rec := get(t, s, "/skyline?dims=1,0"); rec.Code != http.StatusOK {
		t.Errorf("dims=1,0: status %d", rec.Code)
	}
}

func newObsServer(t *testing.T) (*Server, *obs.Registry, *obs.Trace) {
	t.Helper()
	ds, err := skycube.DatasetFromRows([][]float32{
		{1, 4, 2}, {3, 1, 5}, {2, 3, 1}, {5, 5, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := skycube.NewMetrics()
	tr := skycube.NewTrace()
	cube, stats, err := skycube.Build(ds, skycube.Options{
		Algorithm: skycube.MDMC, Threads: 2, Metrics: reg, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWith(cube, ds, Options{
		BuildInfo: &BuildInfo{
			Algorithm:      "MDMC",
			Points:         ds.Len(),
			Dims:           ds.Dims(),
			MaxLevel:       cube.MaxLevel(),
			ElapsedSeconds: stats.Elapsed.Seconds(),
		},
		Metrics: reg,
		Trace:   tr,
	})
	return s, reg, tr
}

func TestBuildInfoEndpoint(t *testing.T) {
	s, _, _ := newObsServer(t)
	rec := get(t, s, "/buildinfo")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var info BuildInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Algorithm != "MDMC" || info.Points != 4 || info.Dims != 3 {
		t.Errorf("buildinfo = %+v", info)
	}

	// A plain New server has no /buildinfo.
	plain, _, _ := newTestServer(t, 0)
	if rec := get(t, plain, "/buildinfo"); rec.Code != http.StatusNotFound {
		t.Errorf("plain server /buildinfo: status %d, want 404", rec.Code)
	}
}

func TestMetricsEndpointAndMiddleware(t *testing.T) {
	s, _, _ := newObsServer(t)
	// Generate traffic the middleware should count.
	get(t, s, "/info")
	get(t, s, "/skyline?dims=0")
	get(t, s, "/skyline?dims=notadim")

	rec := get(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`skycube_builds_total{algorithm="MDMC"} 1`,
		`skycube_kernel_impl{impl="` + skycube.KernelStats().Impl + `"} 1`,
		`http_requests_total{code="200",path="/info"} 1`,
		`http_requests_total{code="400",path="/skyline"} 1`,
		`http_request_duration_seconds_bucket`,
		`http_request_duration_seconds_count{path="/skyline"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	s, _, tr := newObsServer(t)
	rec := get(t, s, "/trace")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if tr.Len() == 0 || len(doc.TraceEvents) < tr.Len() {
		t.Errorf("%d events for %d spans", len(doc.TraceEvents), tr.Len())
	}
}

// newUpdaterServer builds a maintenance-mode server over the same 5-point
// dataset as newTestServer.
func newUpdaterServer(t *testing.T, opt Options) (*Server, *skycube.Updater) {
	t.Helper()
	ds, err := skycube.DatasetFromRows([][]float32{
		{12.20, 17, 120},
		{9.00, 12, 148},
		{8.20, 13, 169},
		{21.25, 3, 186},
		{21.25, 5, 196},
	})
	if err != nil {
		t.Fatal(err)
	}
	up, err := skycube.NewUpdater(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(up.Close)
	opt.Updater = up
	return NewWith(nil, nil, opt), up
}

func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestMethodNotAllowed checks that every endpoint answers a mismatched
// verb with 405 and a correct Allow header.
func TestMethodNotAllowed(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	for _, path := range []string{"/info", "/skyline?dims=0", "/membership?id=1"} {
		rec := post(t, s, path, "{}")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != http.MethodGet {
			t.Errorf("POST %s: Allow = %q, want GET", path, got)
		}
	}
	us, _ := newUpdaterServer(t, Options{})
	for _, path := range []string{"/insert", "/delete", "/flush", "/compact"} {
		rec := get(t, us, path)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != http.MethodPost {
			t.Errorf("GET %s: Allow = %q, want POST", path, got)
		}
	}
	if rec := post(t, us, "/updates", "{}"); rec.Code != http.StatusMethodNotAllowed ||
		rec.Header().Get("Allow") != http.MethodGet {
		t.Errorf("POST /updates: status %d, Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestMutationFlow drives insert → flush → delete → flush over HTTP and
// checks that reads follow the epochs, including pinned ?epoch=N reads
// against evicted and future epochs.
func TestMutationFlow(t *testing.T) {
	s, up := newUpdaterServer(t, Options{})

	// Epoch 1 serves the initial build.
	var info infoResponse
	rec := get(t, s, "/info")
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Epoch != 1 || info.Points != 5 {
		t.Fatalf("initial info = %+v", info)
	}
	baseline := up.Current().Skyline(skycube.FullSpace(3))

	// Insert a point dominating everything, flush, and watch it take over.
	rec = post(t, s, "/insert", `{"points": [[1.0, 1, 100]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/insert: %d %s", rec.Code, rec.Body)
	}
	var ins insertResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ins); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ins.IDs, []int32{5}) || ins.PendingInserts != 1 {
		t.Fatalf("insert response = %+v", ins)
	}
	rec = post(t, s, "/flush", "")
	var ep epochResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != 2 || ep.Live != 6 {
		t.Fatalf("flush response = %+v", ep)
	}
	var sky skylineResponse
	rec = get(t, s, "/skyline?dims=0,1,2")
	if err := json.Unmarshal(rec.Body.Bytes(), &sky); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sky.IDs, []int32{5}) || sky.Epoch != 2 {
		t.Fatalf("post-insert skyline = %+v", sky)
	}

	// A pinned read at epoch 1 still serves the pre-insert answers.
	rec = get(t, s, "/skyline?dims=0,1,2&epoch=1")
	if err := json.Unmarshal(rec.Body.Bytes(), &sky); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sky.IDs, baseline) || sky.Epoch != 1 {
		t.Fatalf("pinned epoch-1 skyline = %+v, want ids %v", sky, baseline)
	}

	// Delete the usurper; the old skyline returns at epoch 3.
	rec = post(t, s, "/delete", `{"ids": [5]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("/delete: %d %s", rec.Code, rec.Body)
	}
	post(t, s, "/flush", "")
	rec = get(t, s, "/skyline?dims=0,1,2")
	if err := json.Unmarshal(rec.Body.Bytes(), &sky); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sky.IDs, baseline) || sky.Epoch != 3 {
		t.Fatalf("post-delete skyline = %+v, want ids %v", sky, baseline)
	}

	// Membership of the dead id reports alive=false.
	var mem membershipResponse
	rec = get(t, s, "/membership?id=5")
	if err := json.Unmarshal(rec.Body.Bytes(), &mem); err != nil {
		t.Fatal(err)
	}
	if mem.Alive == nil || *mem.Alive || len(mem.Subspaces) != 0 {
		t.Fatalf("dead-id membership = %+v", mem)
	}

	// Epoch errors: future → 410, garbage → 400, deleting a dead id → 400.
	if rec := get(t, s, "/skyline?dims=0&epoch=99"); rec.Code != http.StatusGone {
		t.Errorf("future epoch: status %d, want 410", rec.Code)
	}
	if rec := get(t, s, "/skyline?dims=0&epoch=x"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad epoch: status %d, want 400", rec.Code)
	}
	if rec := post(t, s, "/delete", `{"ids": [5]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("double delete: status %d, want 400", rec.Code)
	}

	// /compact folds the overlay and bumps the epoch.
	rec = post(t, s, "/compact", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != 4 || ep.Live != 5 || ep.Overlay != 0 {
		t.Fatalf("compact response = %+v", ep)
	}

	// /updates serves the stats counters.
	var st skycube.UpdaterStats
	rec = get(t, s, "/updates")
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 4 || st.Live != 5 || st.Compactions != 1 {
		t.Fatalf("updates stats = %+v", st)
	}
}

// TestEpochEviction pins reads past the history ring.
func TestEpochEviction(t *testing.T) {
	s, _ := newUpdaterServer(t, Options{})
	// Default history is 8; push epoch 1 out.
	for i := 0; i < 9; i++ {
		if rec := post(t, s, "/insert", `{"points": [[50, 50, 500]]}`); rec.Code != http.StatusOK {
			t.Fatalf("insert %d: %d %s", i, rec.Code, rec.Body)
		}
		post(t, s, "/flush", "")
	}
	if rec := get(t, s, "/skyline?dims=0&epoch=1"); rec.Code != http.StatusGone {
		t.Errorf("evicted epoch: status %d, want 410", rec.Code)
	}
	if rec := get(t, s, "/skyline?dims=0&epoch=10"); rec.Code != http.StatusOK {
		t.Errorf("latest epoch: status %d, want 200", rec.Code)
	}
}

// TestBodyCap checks the MaxBytesReader guard and malformed-body errors.
func TestBodyCap(t *testing.T) {
	s, _ := newUpdaterServer(t, Options{})
	big := `{"points": [[` + strings.Repeat("1,", MaxBodyBytes/2) + `1]]}`
	if rec := post(t, s, "/insert", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}
	for body, want := range map[string]int{
		`not json`:          http.StatusBadRequest,
		`{"points": []}`:    http.StatusBadRequest,
		`{"unknown": true}`: http.StatusBadRequest,
		`{"points": [[1]]}`: http.StatusBadRequest, // wrong dimensionality
	} {
		if rec := post(t, s, "/insert", body); rec.Code != want {
			t.Errorf("body %q: status %d, want %d", body, rec.Code, want)
		}
	}
}

// TestEpochOnStaticServer rejects ?epoch=N without an updater.
func TestEpochOnStaticServer(t *testing.T) {
	s, _, _ := newTestServer(t, 0)
	if rec := get(t, s, "/skyline?dims=0&epoch=1"); rec.Code != http.StatusBadRequest {
		t.Errorf("static epoch read: status %d, want 400", rec.Code)
	}
}

func TestRequestLogging(t *testing.T) {
	ds, err := skycube.DatasetFromRows([][]float32{{1, 2}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.MDMC, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	s := NewWith(cube, ds, Options{Logger: log.New(&logBuf, "", 0)})
	get(t, s, "/info")
	get(t, s, "/membership?id=99")
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("logged %d lines: %q", len(lines), logBuf.String())
	}
	if !strings.HasPrefix(lines[0], "GET /info 200") {
		t.Errorf("log line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "GET /membership?id=99 400") {
		t.Errorf("log line %q", lines[1])
	}
}
