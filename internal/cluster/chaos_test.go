// Chaos tests: the cluster must stay exact through slow replicas, killed
// replicas and mid-query failovers — and when a whole shard is gone it must
// say so explicitly (HTTP 206 + "partial": true), never answer silently
// wrong.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

// faultyHandler wraps a shard with injectable latency, a kill switch and a
// hang.
type faultyHandler struct {
	inner http.Handler
	delay atomic.Int64 // nanoseconds added to every request
	dead  atomic.Bool  // refuse all requests with a 500
	hung  atomic.Bool  // answer nothing until the client gives up
}

func (f *faultyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.dead.Load() {
		http.Error(w, "injected fault: replica dead", http.StatusInternalServerError)
		return
	}
	if f.hung.Load() {
		<-r.Context().Done()
		return
	}
	if d := f.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	f.inner.ServeHTTP(w, r)
}

// chaosCluster is K=2 shards × R=2 replicas with fault injection on every
// replica.
type chaosCluster struct {
	coord  *Coordinator
	faults [][]*faultyHandler   // [shard][replica]
	srvs   [][]*httptest.Server // [shard][replica]
	reg    *obs.Registry
}

func newChaosCluster(t *testing.T, ds *skycube.Dataset, copt CoordinatorOptions) *chaosCluster {
	t.Helper()
	const k, r = 2, 2
	parts, err := ds.Partition(k, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	cc := &chaosCluster{reg: obs.NewRegistry()}
	var specs []ShardSpec
	for s, part := range parts {
		var faults []*faultyHandler
		var srvs []*httptest.Server
		var urls []string
		for rep := 0; rep < r; rep++ {
			// Trace every request through the chaos: under -race this makes
			// the hedge/retry event recording itself a data-race probe.
			sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{
				IDBase: s, IDStride: k,
				Requests: obs.NewRequestRing(64), SampleEvery: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sh.Close)
			f := &faultyHandler{inner: sh}
			srv := httptest.NewServer(f)
			t.Cleanup(srv.Close)
			faults = append(faults, f)
			srvs = append(srvs, srv)
			urls = append(urls, srv.URL)
		}
		cc.faults = append(cc.faults, faults)
		cc.srvs = append(cc.srvs, srvs)
		specs = append(specs, ShardSpec{Replicas: urls, IDBase: s, IDStride: k})
	}
	copt.Metrics = cc.reg
	if copt.Requests == nil {
		copt.Requests = obs.NewRequestRing(64)
		copt.SampleEvery = 1
	}
	coord, err := NewCoordinator(specs, copt)
	if err != nil {
		t.Fatal(err)
	}
	cc.coord = coord
	return cc
}

// rawQuerySkyline is the goroutine-safe variant of querySkyline: it never
// touches testing.T.
func rawQuerySkyline(h http.Handler, delta mask.Mask) (int, skylineResponse, error) {
	var dims []string
	for d := 0; d < 32; d++ {
		if delta&mask.Bit(d) != 0 {
			dims = append(dims, fmt.Sprint(d))
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/skyline?dims="+strings.Join(dims, ","), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var resp skylineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return rec.Code, resp, fmt.Errorf("decode (%s): %w", rec.Body.String(), err)
	}
	return rec.Code, resp, nil
}

func metricsText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestChaosSlowReplicaHedgedReads(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 300, 4, 41)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: 5 * time.Second})
	tuneClient(cc.coord, 10*time.Millisecond)
	cube, _, err := skycube.Build(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Slow one replica of each shard to 10x the hedge delay: whichever
	// replica rotation picks first, roughly half the queries hit a slow
	// primary and must be rescued by a hedge to the fast replica.
	cc.faults[0][0].delay.Store(int64(100 * time.Millisecond))
	cc.faults[1][1].delay.Store(int64(100 * time.Millisecond))

	for delta := mask.Mask(1); delta < 1<<4; delta++ {
		got := querySkyline(t, cc.coord, delta, http.StatusOK)
		if got.Partial {
			t.Fatalf("subspace %d: partial despite live replicas", delta)
		}
		if want := cube.Skyline(skycube.Subspace(delta)); !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d under slow replica: ids %v, want %v", delta, got.IDs, want)
		}
	}
	m := metricsText(t, cc.reg)
	if !strings.Contains(m, "skycube_cluster_hedges_total") {
		t.Fatalf("no hedges launched against a 10x-slow replica; metrics:\n%s", m)
	}
	if !strings.Contains(m, "skycube_cluster_hedge_wins_total") {
		t.Fatalf("no hedge ever won against a 10x-slow replica; metrics:\n%s", m)
	}
}

func TestChaosKilledReplicaFailover(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 300, 4, 43)
	cc := newChaosCluster(t, ds, CoordinatorOptions{
		Timeout: time.Second,
		// This test exercises the fan-out failover machinery; with the
		// read memo on, the post-kill repeats of an already-answered query
		// would be served from cache and never touch a replica.
		DisableCache: true,
	})
	tuneClient(cc.coord, 5*time.Millisecond)
	cube, _, err := skycube.Build(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		for delta := mask.Mask(1); delta < 1<<4; delta++ {
			got := querySkyline(t, cc.coord, delta, http.StatusOK)
			if got.Partial {
				t.Fatalf("%s: subspace %d partial despite a live replica per shard", stage, delta)
			}
			if want := cube.Skyline(skycube.Subspace(delta)); !equalIDs(got.IDs, want) {
				t.Fatalf("%s: subspace %d ids %v, want %v", stage, delta, got.IDs, want)
			}
		}
	}
	check("healthy")
	// Kill one replica of shard 0 mid-run: retries and hedges must fail
	// over to the surviving replica with zero wrong answers.
	cc.faults[0][1].dead.Store(true)
	check("one replica dead")
	// Hard-close the other shard's replica socket too (connection refused
	// rather than HTTP 500).
	cc.srvs[1][0].Close()
	check("one replica dead + one socket closed")
	m := metricsText(t, cc.reg)
	if !strings.Contains(m, "skycube_cluster_retries_total") && !strings.Contains(m, "skycube_cluster_hedges_total") {
		t.Fatalf("failover left no retry/hedge trace; metrics:\n%s", m)
	}
}

func TestChaosWholeShardDownIsExplicitlyPartial(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 47)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: time.Second})
	tuneClient(cc.coord, 5*time.Millisecond)
	setBreakers(cc.coord, 1, time.Hour)
	// Both replicas of shard 1 die.
	cc.faults[1][0].dead.Store(true)
	cc.faults[1][1].dead.Store(true)

	// The surviving half of the data, as the partial responses should see it.
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	cube0, _, err := skycube.Build(parts[0], skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		got := querySkyline(t, cc.coord, delta, http.StatusPartialContent)
		if !got.Partial {
			t.Fatalf("subspace %d: 206 without partial flag", delta)
		}
		if len(got.FailedShards) != 1 || got.FailedShards[0] != "1" {
			t.Fatalf("subspace %d: failed_shards = %v, want [1]", delta, got.FailedShards)
		}
		local := cube0.Skyline(skycube.Subspace(delta))
		want := make([]int32, len(local))
		for i, row := range local {
			want[i] = row * 2 // shard 0 of 2, round-robin
		}
		if !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d: partial ids %v, want shard-0 skyline %v", delta, got.IDs, want)
		}
	}

	// With breakers now open on shard 1, readiness must say so.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	cc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a dead shard: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"down_shards":["1"]`) {
		t.Fatalf("healthz body lacks down shard: %s", rec.Body.String())
	}
	m := metricsText(t, cc.reg)
	if !strings.Contains(m, "skycube_cluster_partial_responses_total") {
		t.Fatalf("partial responses not counted; metrics:\n%s", m)
	}
	if !strings.Contains(m, "skycube_cluster_breaker_opens_total") {
		t.Fatalf("breaker opens not counted; metrics:\n%s", m)
	}
}

func TestChaosAllShardsDown(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 100, 3, 53)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: 500 * time.Millisecond})
	tuneClient(cc.coord, defaultHedgeDelay)
	// Learn dims while healthy, then lose everything.
	if err := cc.coord.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	for _, shard := range cc.faults {
		for _, f := range shard {
			f.dead.Store(true)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1", nil)
	rec := httptest.NewRecorder()
	cc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("all shards down: status %d, want 502: %s", rec.Code, rec.Body.String())
	}
}

func TestChaosConcurrentQueriesUnderFaults(t *testing.T) {
	// Hammer the coordinator from many goroutines while a replica flaps;
	// run under -race this doubles as a data-race probe for the client's
	// hedge/retry machinery.
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 59)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: time.Second})
	tuneClient(cc.coord, 2*time.Millisecond)
	cube, _, err := skycube.Build(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
		// Flap one replica for the duration of the test.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cc.faults[0][0].dead.Store(i%2 == 0)
			time.Sleep(3 * time.Millisecond)
		}
	}()
	defer close(stop)

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 20; i++ {
				delta := mask.Mask(1 + (w+i)%7)
				status, got, err := rawQuerySkyline(cc.coord, delta)
				if err != nil {
					errs <- fmt.Errorf("worker %d: subspace %d: %v", w, delta, err)
					return
				}
				if status != http.StatusOK || got.Partial {
					errs <- fmt.Errorf("worker %d: subspace %d: status %d partial=%v", w, delta, status, got.Partial)
					return
				}
				if want := cube.Skyline(skycube.Subspace(delta)); !equalIDs(got.IDs, want) {
					errs <- fmt.Errorf("worker %d: subspace %d ids %v, want %v", w, delta, got.IDs, want)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosHungReplicaIsBenchedUnderHedging: a replica that never answers is
// raced by a hedge on every query that starts on it, and the hedge wins. The
// abandoned attempt still runs to its timeout and counts as a failure, so
// the replica's breaker opens and later queries stop paying the hedge delay.
func TestChaosHungReplicaIsBenchedUnderHedging(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 83)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: 200 * time.Millisecond, DisableCache: true})
	cube, _, err := skycube.Build(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	query := func(i int) {
		delta := mask.Mask(1 + i%7)
		status, got, err := rawQuerySkyline(cc.coord, delta)
		if err != nil || status != http.StatusOK || got.Partial {
			t.Fatalf("query %d: status %d partial=%v err %v", i, status, got.Partial, err)
		}
		if want := cube.Skyline(skycube.Subspace(delta)); !equalIDs(got.IDs, want) {
			t.Fatalf("query %d: subspace %d ids %v, want %v", i, delta, got.IDs, want)
		}
	}
	cc.faults[0][0].hung.Store(true)
	brk := cc.coord.curMap().shards[0].replicas[0].brk
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; brk.State() != breakerOpen; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("hung replica's breaker is still in state %d after %d hedged queries", brk.State(), i)
		}
		query(i)
		if brk.State() == breakerOpen {
			t.Logf("hung replica benched after %d queries", i+1)
		}
	}

	hedges := cc.reg.CounterM("skycube_cluster_hedges_total", "", "shard", "0")
	before := hedges.Value()
	const n = 20
	start := time.Now()
	for i := 0; i < n; i++ {
		query(i)
	}
	if h := hedges.Value() - before; h != 0 {
		t.Fatalf("%v hedges on shard 0 with its hung replica benched", h)
	}
	if d := time.Since(start); d >= n*defaultHedgeDelay {
		t.Fatalf("%d queries took %v with the hung replica benched: they still wait out hedge delays", n, d)
	}
}

// TestChaosHedgeKeepsRotationFair: with one of a shard's two replicas slower
// than the hedge delay, the rotation still starts every other request on the
// fast replica, so about half the queries hedge. A hedge that advanced the
// rotation would start the next request on the slow replica again.
func TestChaosHedgeKeepsRotationFair(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 89)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: 5 * time.Second, DisableCache: true})
	if err := cc.coord.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	cc.faults[0][1].delay.Store(int64(3 * defaultHedgeDelay))
	const n = 40
	for i := 0; i < n; i++ {
		delta := mask.Mask(1 + i%7)
		if status, got, err := rawQuerySkyline(cc.coord, delta); err != nil || status != http.StatusOK || got.Partial {
			t.Fatalf("query %d: status %d partial=%v err %v", i, status, got.Partial, err)
		}
	}
	h := cc.reg.CounterM("skycube_cluster_hedges_total", "", "shard", "0").Value()
	t.Logf("%v of %d queries hedged on shard 0", h, n)
	if h > n/2+1 {
		t.Fatalf("%v of %d queries hedged on shard 0; a fair rotation hedges about half", h, n)
	}
}

// TestChaosCallerCancelDoesNotLatchDivergence: a caller that leaves mid-insert
// does not abandon the write. Every replica it reached applies the batch, so
// the replica sets stay equal and no shard reports diverged writes.
func TestChaosCallerCancelDoesNotLatchDivergence(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 97)
	cc := newChaosCluster(t, ds, CoordinatorOptions{Timeout: 5 * time.Second})
	if err := cc.coord.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	for _, shard := range cc.faults {
		shard[1].delay.Store(int64(200 * time.Millisecond))
	}
	shardOf := func(f *faultyHandler) *Shard { return f.inner.(*Shard) }
	pending := func(rep int) int {
		n := 0
		for _, shard := range cc.faults {
			ins, _ := shardOf(shard[rep]).Updater().Pending()
			n += ins
		}
		return n
	}

	ctx, cancel := context.WithCancel(t.Context())
	body, err := json.Marshal(insertRequest{Points: [][]float32{{0.05, 0.05, 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(body)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		cc.coord.ServeHTTP(httptest.NewRecorder(), req)
	}()
	// The caller leaves once the fast replica has the point and the slow one
	// is still at work.
	deadline := time.Now().Add(5 * time.Second)
	for pending(0) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the fast replica never received the insert")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done

	postJSON(t, cc.coord, "/flush", struct{}{}, http.StatusOK)
	for s, shard := range cc.faults {
		if a, b := shardOf(shard[0]).Updater().Current().Live(), shardOf(shard[1]).Updater().Current().Live(); a != b {
			t.Fatalf("shard %d: replicas hold %d and %d live points", s, a, b)
		}
	}
	rec := httptest.NewRecorder()
	cc.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/info", nil))
	var info infoResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	for _, sh := range info.Shards {
		if sh.WritesDiverged {
			t.Fatalf("shard %s reports diverged writes after a cancelled insert", sh.Name)
		}
	}
}

// cuboidHook wraps a shard and runs a hook once, right before the next
// /shard/cuboid request is forwarded.
type cuboidHook struct {
	inner  http.Handler
	before atomic.Pointer[func()]
}

func (h *cuboidHook) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/shard/cuboid" {
		if fn := h.before.Swap(nil); fn != nil {
			(*fn)()
		}
	}
	h.inner.ServeHTTP(w, r)
}

// TestChaosEpochAdvanceMidGather lands a write between the coordinator's
// scatter and one shard's answer: shard 0 applies an insert and flushes just
// before serving its cuboid. A shard always answers from one snapshot and
// names its epoch, so the gather stays exact for the state each shard
// answered at: the new point is in, the points it dominates are out, and the
// response's epochs show shard 0 ahead of shard 1. (The write bypasses the
// coordinator, so its memo is off, as it must be for such a topology.)
func TestChaosEpochAdvanceMidGather(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 71)
	const k = 2
	parts, err := ds.Partition(k, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	var specs []ShardSpec
	var shard0 *Shard
	var hook0 *cuboidHook
	for s, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{IDBase: s, IDStride: k})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		hook := &cuboidHook{inner: sh}
		srv := httptest.NewServer(hook)
		t.Cleanup(srv.Close)
		if s == 0 {
			shard0, hook0 = sh, hook
		}
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: k})
	}
	coord, err := NewCoordinator(specs, CoordinatorOptions{Timeout: time.Second, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}

	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	before := querySkyline(t, coord, mask.Mask(7), http.StatusOK)

	strong := []float32{0.001, 0.001, 0.001}
	advance := func() {
		postJSON(t, shard0, "/insert", insertRequest{Points: [][]float32{strong}}, http.StatusOK)
		postJSON(t, shard0, "/flush", struct{}{}, http.StatusOK)
	}
	hook0.before.Store(&advance)
	// Shard 0 (base 0, stride 2) appends local row 100 -> global id 200.
	points[200] = strong

	got := querySkyline(t, coord, mask.Mask(7), http.StatusOK)
	if got.Partial {
		t.Fatal("epoch advance degraded to partial despite healthy shards")
	}
	if want := bruteSkyline(points, mask.Mask(7)); !equalIDs(got.IDs, want) {
		t.Fatalf("ids %v, want %v (silently wrong under epoch advance)", got.IDs, want)
	}
	if got.Epochs["0"] != before.Epochs["0"]+1 || got.Epochs["1"] != before.Epochs["1"] {
		t.Fatalf("epochs %v after %v: want shard 0 one ahead, shard 1 unmoved", got.Epochs, before.Epochs)
	}
}
