package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/data"
	"skycube/internal/delta"
	"skycube/internal/dom"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

// testCluster is a K-shard, R-replica cluster wired over httptest servers.
type testCluster struct {
	coord   *Coordinator
	shards  [][]*Shard           // [shard][replica]
	servers [][]*httptest.Server // [shard][replica]
	parts   []*skycube.Dataset
	specs   []ShardSpec
}

func (tc *testCluster) close() {
	for _, reps := range tc.servers {
		for _, s := range reps {
			s.Close()
		}
	}
	for _, reps := range tc.shards {
		for _, sh := range reps {
			sh.Close()
		}
	}
}

// newTestCluster partitions ds into k shards with r replicas each, serves
// every replica over loopback HTTP, and builds a coordinator on top.
func newTestCluster(t *testing.T, ds *skycube.Dataset, k, r int, mode skycube.PartitionMode, copt CoordinatorOptions) *testCluster {
	t.Helper()
	return newTestClusterOpts(t, ds, k, r, mode, copt, nil)
}

// newTestClusterOpts is newTestCluster with a per-shard options hook (used
// by the trace tests to give every shard its own request ring).
func newTestClusterOpts(t *testing.T, ds *skycube.Dataset, k, r int, mode skycube.PartitionMode, copt CoordinatorOptions, shardOpt func(shard, replica int, so *ShardOptions)) *testCluster {
	t.Helper()
	parts, err := ds.Partition(k, mode)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	tc := &testCluster{parts: parts}
	posBase := 0
	for s, part := range parts {
		base, stride := s, k
		if mode.Positional() {
			// Positional modes (range, angular) number global ids by
			// concatenation order: this shard's base is the total size of
			// the shards before it, which reproduces data.RangeOffsets.
			base, stride = posBase, 1
		}
		posBase += part.Len()
		var reps []*Shard
		var srvs []*httptest.Server
		var urls []string
		for rep := 0; rep < r; rep++ {
			so := ShardOptions{IDBase: base, IDStride: stride}
			if shardOpt != nil {
				shardOpt(s, rep, &so)
			}
			sh, err := NewShard(part, skycube.Options{Threads: 2}, so)
			if err != nil {
				t.Fatalf("NewShard(%d/%d): %v", s, rep, err)
			}
			srv := httptest.NewServer(sh)
			reps = append(reps, sh)
			srvs = append(srvs, srv)
			urls = append(urls, srv.URL)
		}
		tc.shards = append(tc.shards, reps)
		tc.servers = append(tc.servers, srvs)
		tc.specs = append(tc.specs, ShardSpec{Replicas: urls, IDBase: base, IDStride: stride})
	}
	coord, err := NewCoordinator(tc.specs, copt)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	tc.coord = coord
	t.Cleanup(tc.close)
	return tc
}

// querySkyline issues GET /skyline for the subspace and decodes the payload.
func querySkyline(t *testing.T, h http.Handler, delta mask.Mask, wantStatus int) skylineResponse {
	t.Helper()
	var dims []string
	for d := 0; d < 32; d++ {
		if delta&mask.Bit(d) != 0 {
			dims = append(dims, fmt.Sprint(d))
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/skyline?dims="+strings.Join(dims, ","), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET /skyline subspace %b: status %d, want %d: %s", delta, rec.Code, wantStatus, rec.Body.String())
	}
	var resp skylineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode /skyline: %v", err)
	}
	return resp
}

func postJSON(t *testing.T, h http.Handler, path string, body interface{}, wantStatus int) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", path, rec.Code, wantStatus, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bruteSkyline computes the Definition-1 skyline of an id -> point map.
func bruteSkyline(points map[int32][]float32, delta mask.Mask) []int32 {
	var out []int32
	for id, p := range points {
		dominated := false
		for other, q := range points {
			if other != id && dom.DominatesIn(q, p, delta) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, id)
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []int32) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// fetchCuboid GETs a /shard/cuboid path from h and decodes the reply through
// the production decoder, then asserts what a reader of the wire format may
// rely on beyond what the decoder enforces: the content type, that exactly
// δ's columns travel (body length included), that the lane sums are what
// data.SumOver yields and that ties in δ-sum ascend by id.
func fetchCuboid(t *testing.T, h http.Handler, path string, delta mask.Mask) *cuboidFrame {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	f, err := decodeCuboidFrame(rec.Body.Bytes(), delta)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	checkFrameShape(t, f, delta, rec.Body.Len())
	return f
}

// checkFrameShape is fetchCuboid's assertions on a decoded frame whose wire
// encoding was bodyLen bytes long.
func checkFrameShape(t testing.TB, f *cuboidFrame, delta mask.Mask, bodyLen int) {
	t.Helper()
	k, n := mask.Count(delta), len(f.ids)
	if len(f.cols) != k {
		t.Fatalf("subspace %d: frame has %d columns, want δ's %d", delta, len(f.cols), k)
	}
	if want := 8 + frameHeaderSize + 4*n*(k+1); bodyLen != want {
		t.Fatalf("subspace %d: %d lanes in %d bytes, want %d", delta, n, bodyLen, want)
	}
	p := make([]float32, k)
	all := mask.Dims(mask.Full(k))
	for i := range f.ids {
		for j := range p {
			p[j] = f.cols[j][i]
		}
		if s := data.SumOver(p, all); s != f.sums[i] {
			t.Fatalf("subspace %d lane %d: sum %v, SumOver %v", delta, i, f.sums[i], s)
		}
		if i > 0 && (f.sums[i] < f.sums[i-1] || f.sums[i] == f.sums[i-1] && f.ids[i] <= f.ids[i-1]) {
			t.Fatalf("subspace %d: lanes %d, %d out of (δ-sum, id) order: (%v, %d) then (%v, %d)",
				delta, i-1, i, f.sums[i-1], f.ids[i-1], f.sums[i], f.ids[i])
		}
	}
}

func TestShardCuboidEndpoint(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 300, 3, 7)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShard(parts[1], skycube.Options{Threads: 2}, ShardOptions{IDBase: 1, IDStride: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	cube, _, err := skycube.Build(parts[1], skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		frame := fetchCuboid(t, sh, fmt.Sprintf("/shard/cuboid?subspace=%d", delta), delta)
		local := cube.Skyline(skycube.Subspace(delta))
		if len(frame.ids) != len(local) {
			t.Fatalf("subspace %d: %d ids, want %d", delta, len(frame.ids), len(local))
		}
		lane := map[int32]int{}
		for i, id := range frame.ids {
			lane[id] = i
		}
		for _, row := range local {
			want := int32(1) + row*2
			i, ok := lane[want]
			if !ok {
				t.Fatalf("subspace %d: global id %d (row %d) missing from %v", delta, want, row, frame.ids)
			}
			p := parts[1].Point(int(row))
			for j, dim := range mask.Dims(delta) {
				if frame.cols[j][i] != p[dim] {
					t.Fatalf("subspace %d: id %d column %d = %v, want dimension %d = %v",
						delta, want, j, frame.cols[j][i], dim, p[dim])
				}
			}
		}
	}
}

func TestShardCuboidBadSubspace(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 50, 3, 1)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	// The last three are well-formed subspaces with a parameter the endpoint
	// does not have: the retired S⁺ switch, and the retired pruning protocol's
	// rep count and (well-formed, one 3-d point) source-side filter — a reply
	// of plain S_δ would be taken for the filtered one.
	for _, spec := range []string{"", "0", "8", "abc", "-1", "7&extended=true", "7&k=3", "7&filter=0,0,0"} {
		req := httptest.NewRequest(http.MethodGet, "/shard/cuboid?subspace="+spec, nil)
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("subspace %q: status %d, want 400", spec, rec.Code)
		}
	}
}

// TestShardSkymetaEndpointGone: the pruning prelude has no route left.
func TestShardSkymetaEndpointGone(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 50, 3, 1)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rec := httptest.NewRecorder()
	sh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/shard/skymeta?subspace=7", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /shard/skymeta: status %d, want 404: %s", rec.Code, rec.Body.String())
	}
}

func TestShardInfoEndpoint(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Correlated, 120, 4, 3)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{IDBase: 2, IDStride: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	req := httptest.NewRequest(http.MethodGet, "/shard/info", nil)
	rec := httptest.NewRecorder()
	sh.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var info shardInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Dims != 4 || info.Live != 120 || info.IDBase != 2 || info.IDStride != 3 {
		t.Fatalf("info = %+v", info)
	}
}

func TestCoordinatorInsertRoutesAndMapsIDs(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 90, 3, 5)
	tc := newTestCluster(t, ds, 3, 1, skycube.RoundRobinPartition, CoordinatorOptions{})

	// Track every live point by its global id: the 90 originals...
	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	// ...plus a batch inserted through the coordinator.
	ins := [][]float32{{0.01, 0.99, 0.5}, {0.99, 0.01, 0.5}, {0.5, 0.5, 0.001}, {0.2, 0.2, 0.2}}
	var resp insertResponse
	if err := json.Unmarshal(postJSON(t, tc.coord, "/insert", insertRequest{Points: ins}, http.StatusOK), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != len(ins) {
		t.Fatalf("insert returned %d ids for %d points", len(resp.IDs), len(ins))
	}
	routed := 0
	for _, n := range resp.Routed {
		routed += n
	}
	if routed != len(ins) {
		t.Fatalf("routed counts %v do not sum to %d", resp.Routed, len(ins))
	}
	for i, id := range resp.IDs {
		if _, dup := points[id]; dup {
			t.Fatalf("insert assigned id %d twice", id)
		}
		points[id] = ins[i]
	}
	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)

	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		got := querySkyline(t, tc.coord, delta, http.StatusOK)
		if got.Partial {
			t.Fatalf("subspace %d: unexpected partial response", delta)
		}
		want := bruteSkyline(points, delta)
		if !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d after insert: ids %v, want %v", delta, got.IDs, want)
		}
	}
}

func TestCoordinatorDeleteRoutesByIDArithmetic(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 80, 3, 9)
	tc := newTestCluster(t, ds, 4, 1, skycube.RoundRobinPartition, CoordinatorOptions{})

	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	// Delete the full-space skyline members: every subspace must re-form
	// from the survivors.
	full := mask.Mask(1<<3 - 1)
	doomed := bruteSkyline(points, full)
	var dresp deleteResponse
	if err := json.Unmarshal(postJSON(t, tc.coord, "/delete", deleteRequest{IDs: doomed}, http.StatusOK), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Deleted != len(doomed) {
		t.Fatalf("deleted %d, want %d (routed %v)", dresp.Deleted, len(doomed), dresp.Routed)
	}
	for _, id := range doomed {
		delete(points, id)
	}
	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)

	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		got := querySkyline(t, tc.coord, delta, http.StatusOK)
		want := bruteSkyline(points, delta)
		if !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d after delete: ids %v, want %v", delta, got.IDs, want)
		}
	}
}

func TestCoordinatorRejectsBadRequests(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 40, 3, 2)
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, CoordinatorOptions{})

	for _, q := range []string{"", "dims=", "dims=3", "dims=a", "dims=0,0", "dims=-1"} {
		req := httptest.NewRequest(http.MethodGet, "/skyline?"+q, nil)
		rec := httptest.NewRecorder()
		tc.coord.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET /skyline?%s: status %d, want 400", q, rec.Code)
		}
	}
	postJSON(t, tc.coord, "/insert", insertRequest{}, http.StatusBadRequest)
	postJSON(t, tc.coord, "/delete", deleteRequest{}, http.StatusBadRequest)
	postJSON(t, tc.coord, "/delete", deleteRequest{IDs: []int32{-7}}, http.StatusBadRequest)

	req := httptest.NewRequest(http.MethodPost, "/skyline?dims=0", nil)
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /skyline: status %d, want 405", rec.Code)
	}
}

func TestCoordinatorInfoAndHealth(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 60, 3, 4)
	reg := obs.NewRegistry()
	tc := newTestCluster(t, ds, 2, 2, skycube.RoundRobinPartition, CoordinatorOptions{Metrics: reg})

	if err := tc.coord.Refresh(t.Context()); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	req := httptest.NewRequest(http.MethodGet, "/info", nil)
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	var info infoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Dims != 3 || len(info.Shards) != 2 || len(info.Shards[0].Replicas) != 2 {
		t.Fatalf("info = %+v", info)
	}
	if info.Shards[1].IDBase != 1 || info.Shards[1].IDStride != 2 {
		t.Fatalf("shard 1 id mapping = %+v", info.Shards[1])
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", rec.Code, rec.Body.String())
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.Ready || h.ShardCount != 2 || h.ReplicaGoal != 2 {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestCoordinatorShardInfoMismatchDetected(t *testing.T) {
	ds3 := skycube.GenerateSynthetic(skycube.Independent, 30, 3, 1)
	ds4 := skycube.GenerateSynthetic(skycube.Independent, 30, 4, 1)
	sh3, err := NewShard(ds3, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh3.Close()
	sh4, err := NewShard(ds4, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh4.Close()
	s3, s4 := httptest.NewServer(sh3), httptest.NewServer(sh4)
	defer s3.Close()
	defer s4.Close()
	coord, err := NewCoordinator([]ShardSpec{
		{Replicas: []string{s3.URL}},
		{Replicas: []string{s4.URL}},
	}, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Refresh(t.Context()); err == nil {
		t.Fatal("Refresh accepted shards with mismatched dimensionality")
	}
}

func TestCoordinatorLearnsIDMappingFromShards(t *testing.T) {
	// Specs without IDBase/IDStride: Refresh must learn them from
	// /shard/info so deletes still route correctly.
	ds := skycube.GenerateSynthetic(skycube.Independent, 60, 3, 8)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	var specs []ShardSpec
	for s, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 1}, ShardOptions{IDBase: s, IDStride: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		srv := httptest.NewServer(sh)
		defer srv.Close()
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}}) // no id mapping
	}
	coord, err := NewCoordinator(specs, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var dresp deleteResponse
	if err := json.Unmarshal(postJSON(t, coord, "/delete", deleteRequest{IDs: []int32{0, 1, 3}}, http.StatusOK), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Deleted != 3 || dresp.Routed["0"] != 1 || dresp.Routed["1"] != 2 {
		t.Fatalf("delete after learned mapping = %+v", dresp)
	}
}

func TestCoordinatorOptionsDefaults(t *testing.T) {
	o := CoordinatorOptions{}.withDefaults()
	if o.Timeout != DefaultTimeout || o.HedgeDelay != DefaultHedgeDelay ||
		o.MaxAttempts != DefaultMaxAttempts || o.BreakerThreshold != DefaultBreakerThreshold {
		t.Fatalf("withDefaults = %+v", o)
	}
	if d := (CoordinatorOptions{HedgeDelay: -1}).withDefaults().HedgeDelay; d != 0 {
		t.Fatalf("negative HedgeDelay should disable hedging, got %v", d)
	}
	if _, err := NewCoordinator(nil, CoordinatorOptions{}); err == nil {
		t.Fatal("NewCoordinator accepted an empty shard map")
	}
	if _, err := NewCoordinator([]ShardSpec{{}}, CoordinatorOptions{}); err == nil {
		t.Fatal("NewCoordinator accepted a shard with no replicas")
	}
}

// TestCoordinatorCountsQueriesItFailed: a read refused after three stale-map
// attempts is exactly the query an operator looks for during a cutover, so it
// must move skycube_cluster_queries_total and the latency histogram like an
// answered one. Every shard here rejects each cuboid request's generation as
// one behind, forever.
func TestCoordinatorCountsQueriesItFailed(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 40, 3, 3)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/shard/cuboid" {
			sh.ServeHTTP(w, r)
			return
		}
		gen, _ := strconv.ParseUint(r.Header.Get(mapGenHeader), 10, 64)
		w.Header().Set(mapGenHeader, strconv.FormatUint(gen+1, 10))
		http.Error(w, "stale shard map generation", http.StatusConflict)
	}))
	defer srv.Close()
	reg := obs.NewRegistry()
	coord, err := NewCoordinator([]ShardSpec{{Replicas: []string{srv.URL}}}, CoordinatorOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	// A request that never becomes a query is not one.
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/skyline?dims=9", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad dims: status %d, want 400", rec.Code)
	}
	if n := metricTotal(t, reg, "skycube_cluster_queries_total"); n != 0 {
		t.Fatalf("a 400 counted as %v queries", n)
	}
	rec = httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("forever-stale shard: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if n := metricTotal(t, reg, "skycube_cluster_queries_total"); n != 1 {
		t.Fatalf("queries_total = %v after one refused query, want 1", n)
	}
	if n := metricTotal(t, reg, "skycube_cluster_query_seconds_count"); n != 1 {
		t.Fatalf("query_seconds_count = %v after one refused query, want 1", n)
	}
}

// TestCoordinatorRejectsInsertOnRangePartition: in range mode (stride-1 id
// blocks) an appended row's global id would collide with the next shard's
// base, so the coordinator must refuse inserts outright — while deletes of
// existing ids stay unambiguous and keep working.
func TestCoordinatorRejectsInsertOnRangePartition(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 40, 3, 3)
	tc := newTestCluster(t, ds, 2, 1, skycube.RangePartition, CoordinatorOptions{})

	postJSON(t, tc.coord, "/insert",
		insertRequest{Points: [][]float32{{0.1, 0.2, 0.3}}}, http.StatusConflict)

	var dresp deleteResponse
	if err := json.Unmarshal(postJSON(t, tc.coord, "/delete", deleteRequest{IDs: []int32{0, 25}}, http.StatusOK), &dresp); err != nil {
		t.Fatal(err)
	}
	if dresp.Deleted != 2 || dresp.Routed["0"] != 1 || dresp.Routed["1"] != 1 {
		t.Fatalf("range-mode delete = %+v, want one id per shard", dresp)
	}
}

// TestCoordinatorInsertRetryIsIdempotent times out the first /insert
// attempt AFTER the shard has applied it: the coordinator's retry carries
// the same batch id, so the shard replays the original response instead of
// inserting the points a second time.
func TestCoordinatorInsertRetryIsIdempotent(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 60, 3, 12)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var swallowed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/insert" && swallowed.CompareAndSwap(false, true) {
			// Apply the insert but never answer: the coordinator times out
			// and retries a write that WAS applied.
			rec := httptest.NewRecorder()
			sh.ServeHTTP(rec, r)
			<-r.Context().Done()
			return
		}
		sh.ServeHTTP(w, r)
	}))
	defer srv.Close()
	coord, err := NewCoordinator([]ShardSpec{{Replicas: []string{srv.URL}}}, CoordinatorOptions{
		Timeout:     100 * time.Millisecond,
		HedgeDelay:  -1,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ins := [][]float32{{0.1, 0.2, 0.3}, {0.9, 0.8, 0.7}}
	var resp insertResponse
	if err := json.Unmarshal(postJSON(t, coord, "/insert", insertRequest{Points: ins}, http.StatusOK), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 || resp.IDs[0] != 60 || resp.IDs[1] != 61 {
		t.Fatalf("replayed insert ids = %v, want the first application's [60 61]", resp.IDs)
	}
	postJSON(t, coord, "/flush", struct{}{}, http.StatusOK)
	if live := sh.Updater().Current().Live(); live != 62 {
		t.Fatalf("live points after retried insert = %d, want 62 (retry double-inserted)", live)
	}
}

// TestCoordinatorRefusesOversizedBatchID: a client batch id that fits shard
// "a"'s per-shard id but not shard "bb"'s is refused with 400 before either
// shard applies its part of the batch.
func TestCoordinatorRefusesOversizedBatchID(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 60, 3, 12)
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, CoordinatorOptions{})
	specs := append([]ShardSpec(nil), tc.specs...)
	specs[0].Name, specs[1].Name = "a", "bb"
	coord, err := NewCoordinator(specs, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var pts [][]float32
	owners := map[int]bool{}
	for i := 0; i < 16; i++ {
		p := []float32{float32(i) + 0.5, 0.25, 0.75}
		pts = append(pts, p)
		owners[coord.curMap().ring.owner(hashPoint(p))] = true
	}
	if len(owners) != 2 {
		t.Fatalf("the points route to %d shards, want both", len(owners))
	}
	req := insertRequest{Points: pts, Batch: strings.Repeat("x", delta.MaxBatchID-len("/a"))}
	// The refusal must be the coordinator's: a shard's own refusal of its
	// id could come after the other shard applied its part.
	if body := postJSON(t, coord, "/insert", req, http.StatusBadRequest); !strings.Contains(string(body), "shard bb's batch id") {
		t.Fatalf("refusal %q does not come from the coordinator", body)
	}
	for s, reps := range tc.shards {
		if ins, _ := reps[0].Updater().Pending(); ins != 0 {
			t.Fatalf("shard %d buffered %d inserts of a refused batch", s, ins)
		}
	}
}

// TestClient4xxNotRetriedAndNoBreakerTrip: a 4xx is a deterministic caller
// error — it must not be retried (every replica answers the same) and must
// not count toward the replica's circuit breaker.
func TestClient4xxNotRetriedAndNoBreakerTrip(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "bad subspace", http.StatusBadRequest)
	}))
	defer srv.Close()
	brk := newBreaker(2, time.Minute, nil)
	g := &shardGroup{name: "s", replicas: []*replica{{url: srv.URL, brk: brk}}}
	c := &fanoutClient{
		hc:          srv.Client(),
		timeout:     time.Second,
		maxAttempts: 3,
		backoffBase: time.Millisecond,
		backoffMax:  time.Millisecond,
		metrics:     obs.NewClusterMetrics(nil),
	}
	if _, err := c.get(context.Background(), g, "/shard/cuboid?subspace=1", 0); err == nil || !isCallerError(err) {
		t.Fatalf("get: err = %v, want a caller (4xx) error", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("get retried a 4xx: %d attempts, want 1", n)
	}
	if brk.State() != breakerClosed {
		t.Fatal("a 4xx counted toward the breaker on get")
	}
	if _, err := c.post(context.Background(), g, "/insert", []byte("{}"), 0); err == nil || !isCallerError(err) {
		t.Fatalf("post: err = %v, want a caller (4xx) error", err)
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("post retried a 4xx: %d total attempts, want 2", n)
	}
	if brk.State() != breakerClosed {
		t.Fatal("a 4xx counted toward the breaker on post")
	}
}

// TestCoordinatorSurfacesWriteDivergence: when a write-all insert lands on
// some replicas but exhausts retries on another, the shard's replica set is
// no longer byte-identical — /info and /healthz must say so.
func TestCoordinatorSurfacesWriteDivergence(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 30, 3, 7)
	shA, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shA.Close()
	shB, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer shB.Close()
	srvA := httptest.NewServer(shA)
	defer srvA.Close()
	// Replica B takes every request except /insert, which always fails as a
	// replica (5xx) error.
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/insert" {
			http.Error(w, "disk full", http.StatusInternalServerError)
			return
		}
		shB.ServeHTTP(w, r)
	}))
	defer srvB.Close()
	coord, err := NewCoordinator([]ShardSpec{{Name: "s0", Replicas: []string{srvA.URL, srvB.URL}}},
		CoordinatorOptions{
			Timeout:     time.Second,
			HedgeDelay:  -1,
			MaxAttempts: 2,
			BackoffBase: time.Millisecond,
			BackoffMax:  time.Millisecond,
		})
	if err != nil {
		t.Fatal(err)
	}

	postJSON(t, coord, "/insert",
		insertRequest{Points: [][]float32{{0.5, 0.5, 0.5}}}, http.StatusBadGateway)

	req := httptest.NewRequest(http.MethodGet, "/info", nil)
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	var info infoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if len(info.Shards) != 1 || !info.Shards[0].WritesDiverged {
		t.Fatalf("/info after partial write-all = %+v, want writes_diverged on s0", info.Shards)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d (diverged shard still serves reads)", rec.Code)
	}
	var h healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.DivergedShards) != 1 || h.DivergedShards[0] != "s0" {
		t.Fatalf("healthz after partial write-all = %+v, want degraded with diverged s0", h)
	}
}

// waitReady polls the shard's /healthz until ready (updater warm-up).
func waitReady(t *testing.T, h http.Handler) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("shard never became ready")
}

func TestShardServesHealthz(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 50, 3, 6)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	waitReady(t, sh)

	sh.Server().SetReady(false)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	sh.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while not ready: status %d, want 503", rec.Code)
	}
	sh.Server().SetReady(true)
	waitReady(t, sh)
}
