// Tests of the cluster tier's materialized read path: the coordinator's
// write-generation memo (short-circuiting the fan-out entirely), its
// invalidation by routed flushes and only by them, the never-cache-partial
// rule with Cache-Control: no-store, and the shard's uncached /shard/cuboid.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/server"
)

// fastOpts are coordinator options tuned for tests (short timeouts, metrics
// attached so cache counters are observable).
func fastOpts(reg *obs.Registry) CoordinatorOptions {
	return CoordinatorOptions{
		Timeout: 2 * time.Second,
		Metrics: reg,
	}
}

// TestCoordinatorCacheShortCircuit proves a warm coordinator answers with
// no shard traffic at all: prime the memo, kill every shard, and the same
// query must still answer 200 with identical bytes.
func TestCoordinatorCacheShortCircuit(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Correlated, 200, 3, 61)
	reg := obs.NewRegistry()
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, fastOpts(reg))

	first := querySkyline(t, tc.coord, mask.Mask(0b011), http.StatusOK)
	// Kill every replica of every shard.
	for _, reps := range tc.servers {
		for _, srv := range reps {
			srv.Close()
		}
	}
	second := querySkyline(t, tc.coord, mask.Mask(0b011), http.StatusOK)
	if !equalIDs(first.IDs, second.IDs) {
		t.Fatalf("cached answer diverged: %v vs %v", first.IDs, second.IDs)
	}
	if tc.coord.cacheCM.Hits() < 1 {
		t.Fatalf("no coordinator cache hit recorded; hits=%v", tc.coord.cacheCM.Hits())
	}
	// A cold subspace, by contrast, must now fail (all shards unreachable).
	req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0", nil)
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("cold query with dead shards: status %d, want 502", rec.Code)
	}
}

// TestCoordinatorCacheInvalidatedByWrite checks a routed write rolls the
// generation so the next read re-gathers and sees the mutation immediately.
func TestCoordinatorCacheInvalidatedByWrite(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 67)
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, fastOpts(obs.NewRegistry()))

	before := querySkyline(t, tc.coord, mask.Full(3), http.StatusOK)
	// A point dominating everything: after insert+flush it IS the skyline.
	postJSON(t, tc.coord, "/insert", map[string]interface{}{
		"points": [][]float32{{-1, -1, -1}},
	}, http.StatusOK)
	postJSON(t, tc.coord, "/flush", map[string]interface{}{}, http.StatusOK)

	after := querySkyline(t, tc.coord, mask.Full(3), http.StatusOK)
	if equalIDs(before.IDs, after.IDs) {
		t.Fatalf("read after write served stale ids %v", after.IDs)
	}
	if len(after.IDs) != 1 {
		t.Fatalf("dominating point: skyline %v, want a single id", after.IDs)
	}
}

// TestCoordinatorCacheSurvivesUnflushedWrites: a routed insert or delete is
// buffered on the shards, invisible until a flush, so it must not cost the
// next read a fan-out. The repeat read is served from the cache — zero
// shard requests, the same bytes, the same ETag — and only the flush rolls
// the generation.
func TestCoordinatorCacheSurvivesUnflushedWrites(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 67)
	ct := &countingTransport{}
	opts := fastOpts(obs.NewRegistry())
	opts.Client = &http.Client{Transport: ct}
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, opts)

	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		tc.coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1,2", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	warm := get()
	var ins insertResponse
	mustUnmarshal(t, postJSON(t, tc.coord, "/insert", insertRequest{Points: [][]float32{{-1, -1, -1}}}, http.StatusOK), &ins)
	postJSON(t, tc.coord, "/delete", deleteRequest{IDs: []int32{5}}, http.StatusOK)

	before := ct.trips.Load()
	repeat := get()
	if trips := ct.trips.Load() - before; trips != 0 {
		t.Fatalf("read after unflushed writes made %d shard requests, want 0", trips)
	}
	if !bytes.Equal(repeat.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("read after unflushed writes changed bytes:\n%s\nwant\n%s", repeat.Body, warm.Body)
	}
	if a, b := repeat.Header().Get("Etag"), warm.Header().Get("Etag"); a == "" || a != b {
		t.Fatalf("ETag %q after unflushed writes, want %q", a, b)
	}

	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)
	before = ct.trips.Load()
	var after skylineResponse
	mustUnmarshal(t, get().Body.Bytes(), &after)
	if ct.trips.Load() == before {
		t.Fatal("read after /flush made no shard request")
	}
	if len(after.IDs) != 1 || after.IDs[0] != ins.IDs[0] {
		t.Fatalf("skyline after flush %v, want the inserted id %v", after.IDs, ins.IDs)
	}
}

// TestCoordinatorReadAfterFlushUnderLoad: readers hammer one subspace over
// HTTP while a writer runs rounds of "insert a point dominating everything,
// then flush". Every read issued after a round's flush returned must show
// that round's point or a later one — never a body cached before the flush.
func TestCoordinatorReadAfterFlushUnderLoad(t *testing.T) {
	const rounds, readers = 12, 4
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 83)
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, fastOpts(obs.NewRegistry()))
	srv := httptest.NewServer(tc.coord)
	t.Cleanup(srv.Close)

	var roundOf sync.Map     // inserted id -> its round, stored before the flush
	var flushed atomic.Int64 // last round whose flush has returned
	stop := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				floor := flushed.Load()
				resp, err := srv.Client().Get(srv.URL + "/skyline?dims=0,1,2")
				if err != nil {
					errs <- err
					return
				}
				var got skylineResponse
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d, decode: %v", resp.StatusCode, err)
					return
				}
				if floor == 0 {
					continue
				}
				r, ok := int64(0), len(got.IDs) == 1
				if ok {
					v, known := roundOf.Load(got.IDs[0])
					if ok = known; ok {
						r = v.(int64)
					}
				}
				if !ok || r < floor {
					errs <- fmt.Errorf("read issued after round %d's flush returned %v (round %d)", floor, got.IDs, r)
					return
				}
			}
		}()
	}
	for r := int64(1); r <= rounds; r++ {
		v := float32(-r)
		var ins insertResponse
		mustUnmarshal(t, postJSON(t, tc.coord, "/insert", insertRequest{Points: [][]float32{{v, v, v}}}, http.StatusOK), &ins)
		roundOf.Store(ins.IDs[0], r)
		postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)
		flushed.Store(r)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCoordinatorETagRoundTrip: the merged response carries a strong
// validator and revalidates with 304 once warm.
func TestCoordinatorETagRoundTrip(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 150, 3, 71)
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, fastOpts(obs.NewRegistry()))

	req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1", nil)
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	etag := rec.Header().Get("Etag")
	if etag == "" {
		t.Fatal("merged response carries no ETag")
	}
	req = httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match: status %d, want 304", rec.Code)
	}
}

// TestPartialResponseNeverCachedAndNoStore: with a whole shard down the
// coordinator answers 206 with Cache-Control: no-store, does not memoize
// the degraded answer, and serves the complete answer again once the shard
// returns.
func TestPartialResponseNeverCachedAndNoStore(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 73)
	reg := obs.NewRegistry()
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, fastOpts(reg))
	setBreakers(tc.coord, 1000, breakerCooldown) // keep probing the dead shard, no breaker latch
	if err := tc.coord.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	full := querySkyline(t, tc.coord, mask.Full(3), http.StatusOK)

	// Invalidate the memo (the write fails — shard 1 is about to die — but
	// still rolls the generation), then take shard 1 down.
	tc.servers[1][0].Close()
	postJSON(t, tc.coord, "/flush", map[string]interface{}{}, http.StatusBadGateway)

	req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1,2", nil)
	rec := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("dead shard: status %d, want 206: %s", rec.Code, rec.Body)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("partial response Cache-Control = %q, want no-store", cc)
	}
	if !strings.Contains(rec.Body.String(), `"partial":true`) {
		t.Fatalf("206 body lacks partial flag: %s", rec.Body)
	}
	// The degraded answer must not have been memoized: repeating the query
	// gathers again (and stays partial while the shard is down)...
	rec2 := httptest.NewRecorder()
	tc.coord.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1,2", nil))
	if rec2.Code != http.StatusPartialContent {
		t.Fatalf("repeat during outage: status %d, want 206", rec2.Code)
	}
	// ...and once the shard is back (fresh server over the same partition),
	// the complete answer returns.
	sh, err := NewShard(tc.parts[1], skycube.Options{Threads: 2}, ShardOptions{IDBase: 1, IDStride: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)
	tc.coord.curMap().shards[1].replicas[0].url = srv.URL

	healed := querySkyline(t, tc.coord, mask.Full(3), http.StatusOK)
	if !equalIDs(healed.IDs, full.IDs) {
		t.Fatalf("healed cluster ids %v, want %v", healed.IDs, full.IDs)
	}
}

// TestShardCuboidExtractsEveryRequest: /shard/cuboid answers from the
// current snapshot and memoizes nothing. Two fetches at one epoch return
// byte-identical, decodable frames; a fetch after a flush returns the new
// epoch's frame; and only the shard's own /skyline reads move its cache
// counters.
func TestShardCuboidExtractsEveryRequest(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Correlated, 150, 3, 79)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sh, err := NewShard(parts[0], skycube.Options{Threads: 2},
		ShardOptions{IDBase: 0, IDStride: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	counters := func() (hits, misses float64) {
		return reg.CounterM("skycube_cache_hits_total", "", "layer", "shard").Value(),
			reg.CounterM("skycube_cache_misses_total", "", "layer", "shard").Value()
	}
	fetch := func() (*httptest.ResponseRecorder, *cuboidFrame) {
		t.Helper()
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/shard/cuboid?subspace=3", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("Content-Type %q", ct)
		}
		f, err := decodeCuboidFrame(rec.Body.Bytes(), 3)
		if err != nil {
			t.Fatal(err)
		}
		return rec, f
	}

	first, f1 := fetch()
	second, _ := fetch()
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("two fetches at one epoch returned different bytes")
	}
	if f1.epoch != sh.Updater().Current().Epoch() {
		t.Fatalf("frame epoch %d, shard at %d", f1.epoch, sh.Updater().Current().Epoch())
	}

	// A point below everything becomes the whole of S_3 at the next epoch.
	var ins insertResponse
	mustUnmarshal(t, postJSON(t, sh, "/insert", insertRequest{Points: [][]float32{{-1, -1, -1}}}, http.StatusOK), &ins)
	postJSON(t, sh, "/flush", struct{}{}, http.StatusOK)
	_, f2 := fetch()
	if f2.epoch != sh.Updater().Current().Epoch() || f2.epoch == f1.epoch {
		t.Fatalf("frame after the flush at epoch %d (before %d, shard at %d)",
			f2.epoch, f1.epoch, sh.Updater().Current().Epoch())
	}
	if want := []int32{sh.GlobalID(ins.IDs[0])}; !slices.Equal(f2.ids, want) {
		t.Fatalf("frame after the flush holds %v, want %v", f2.ids, want)
	}

	if hits, misses := counters(); hits != 0 || misses != 0 {
		t.Fatalf("/shard/cuboid moved the shard cache: hits %v, misses %v", hits, misses)
	}
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("shard /skyline: status %d: %s", rec.Code, rec.Body)
		}
	}
	if hits, misses := counters(); hits != 1 || misses != 1 {
		t.Fatalf("two shard /skyline reads: hits %v, misses %v, want 1 and 1", hits, misses)
	}
}

// TestCoordinatorOneShardFlushKeepsTheRest: a routed flush that applies
// something on one shard only rolls the subspaces that shard changed. The
// other shard's flush finds nothing and answers with the epoch the last roll
// covered, which proves it changed nothing — rolling every subspace instead
// would make every shard re-extract. A cuboid the point did not change is
// then still served from the cache.
func TestCoordinatorOneShardFlushKeepsTheRest(t *testing.T) {
	ct := &countingTransport{}
	tc := newTracedCluster(t, CoordinatorOptions{Client: &http.Client{Transport: ct}})
	if err := tc.coord.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	tracedFlush(t, tc) // the first routed flush has no epoch to follow on
	untouched := mask.Mask(0b0110)
	warm, trips := countedRead(t, tc.coord, ct, untouched)
	if trips == 0 {
		t.Fatal("a cold read made no shard request")
	}

	// One point on shard 0, below everything on dimension 0 and above
	// everything elsewhere: a member of the 8 subspaces holding dimension 0.
	p := pointPerShard(tc.testCluster, func(i int) []float32 {
		return []float32{-1 - float32(i), 10, 10, 10 + float32(i)}
	})[0]
	var ins insertResponse
	mustUnmarshal(t, postJSON(t, tc.coord, "/insert", insertRequest{Points: [][]float32{p}}, http.StatusOK), &ins)
	if ins.Routed["0"] != 1 || len(ins.Routed) != 1 {
		t.Fatalf("point routed %v, want to shard 0 alone", ins.Routed)
	}
	if ev := tracedFlush(t, tc); ev.Detail != "roll-subspaces 8" || ev.N != 8 {
		t.Fatalf("flush of one shard's dimension-0 member: %q (n %d)", ev.Detail, ev.N)
	}

	rec, trips := countedRead(t, tc.coord, ct, untouched)
	if trips != 0 {
		t.Fatalf("δ=%b is untouched, but its read after the flush made %d shard requests", untouched, trips)
	}
	if !bytes.Equal(rec.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatalf("δ=%b: bytes changed:\n%s\nwant\n%s", untouched, rec.Body, warm.Body)
	}
	changed := mask.Mask(0b0011)
	rec, trips = countedRead(t, tc.coord, ct, changed)
	if trips == 0 || !slices.Contains(skylineIDs(t, rec), ins.IDs[0]) {
		t.Fatalf("δ=%b after the flush: %d shard requests, ids %v, want a gather showing %d",
			changed, trips, skylineIDs(t, rec), ins.IDs[0])
	}
}

// refNode is one in-memory node over the whole dataset, the answer every
// cluster read is held against. It applies the writes the cluster
// acknowledged and maps its own ids to the cluster's global ids.
type refNode struct {
	up       *skycube.Updater
	toGlobal map[int32]int32
}

func newRefNode(t *testing.T, ds *skycube.Dataset) *refNode {
	t.Helper()
	up, err := skycube.NewUpdater(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(up.Close)
	n := &refNode{up: up, toGlobal: make(map[int32]int32, ds.Len())}
	for i := 0; i < ds.Len(); i++ {
		n.toGlobal[int32(i)] = int32(i) // round-robin global ids are the rows
	}
	return n
}

// insert buffers points the cluster acknowledged under the global ids ids.
func (n *refNode) insert(t *testing.T, points [][]float32, ids []int32) {
	t.Helper()
	for i, p := range points {
		id, err := n.up.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		n.toGlobal[id] = ids[i]
	}
}

// check holds a cluster answer for delta against the node's.
func (n *refNode) check(t *testing.T, delta mask.Mask, got []int32) {
	t.Helper()
	var want []int32
	for _, id := range n.up.Current().Skyline(delta) {
		want = append(want, n.toGlobal[id])
	}
	slices.Sort(want)
	got = slices.Clone(got)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("δ=%b: cluster answers %v, one node %v", delta, got, want)
	}
}

// pointPerShard returns one point per shard of tc's map, made by mk from
// increasing indices until every shard owns one.
func pointPerShard(tc *testCluster, mk func(i int) []float32) [][]float32 {
	m := tc.coord.curMap()
	out := make([][]float32, len(m.shards))
	for i, left := 0, len(out); left > 0; i++ {
		p := mk(i)
		if s := m.ring.owner(hashPoint(p)); out[s] == nil {
			out[s] = p
			left--
		}
	}
	return out
}

// insertBoth routes points through the coordinator and buffers them on ref.
func insertBoth(t *testing.T, tc *testCluster, ref *refNode, points [][]float32) []int32 {
	t.Helper()
	var ins insertResponse
	mustUnmarshal(t, postJSON(t, tc.coord, "/insert", insertRequest{Points: points}, http.StatusOK), &ins)
	ref.insert(t, points, ins.IDs)
	return ins.IDs
}

// countedRead is GET /skyline for delta through h, with the shard requests
// ct saw it make.
func countedRead(t *testing.T, h http.Handler, ct *countingTransport, delta mask.Mask) (*httptest.ResponseRecorder, int64) {
	t.Helper()
	before := ct.trips.Load()
	var dims []string
	for d := 0; d < mask.MaxDims; d++ {
		if delta&mask.Bit(d) != 0 {
			dims = append(dims, fmt.Sprint(d))
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/skyline?dims="+strings.Join(dims, ","), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("δ=%b: status %d: %s", delta, rec.Code, rec.Body)
	}
	return rec, ct.trips.Load() - before
}

func skylineIDs(t *testing.T, rec *httptest.ResponseRecorder) []int32 {
	t.Helper()
	var resp skylineResponse
	mustUnmarshal(t, rec.Body.Bytes(), &resp)
	return resp.IDs
}

// TestCoordinatorFlushKeepsUntouchedCuboids: a flush rolls only the
// subspaces it changed. Each shard gets a point below everything on
// dimension 0 and above everything elsewhere — a member of exactly the
// subspaces holding dimension 0 — so after the flush a repeat read of any
// other subspace makes no shard request and returns the same bytes and ETag,
// while a read of a changed one gathers and shows the points.
func TestCoordinatorFlushKeepsUntouchedCuboids(t *testing.T) {
	const d = 4
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 300, d, 89)
	ct := &countingTransport{}
	opts := fastOpts(obs.NewRegistry())
	opts.Client = &http.Client{Transport: ct}
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, opts)
	ref := newRefNode(t, ds)
	// The first routed flush has no epoch to follow on, and rolls everything.
	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)

	warm := map[mask.Mask]*httptest.ResponseRecorder{}
	for delta := mask.Mask(1); delta <= mask.Full(d); delta++ {
		rec, trips := countedRead(t, tc.coord, ct, delta)
		if trips == 0 {
			t.Fatalf("δ=%b: a cold read made no shard request", delta)
		}
		ref.check(t, delta, skylineIDs(t, rec))
		warm[delta] = rec
	}
	ids := insertBoth(t, tc, ref, pointPerShard(tc, func(i int) []float32 {
		return []float32{-1 - float32(i), 10, 10, 10 + float32(i)}
	}))
	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)
	ref.up.Flush()

	for delta := mask.Mask(1); delta <= mask.Full(d); delta++ {
		rec, trips := countedRead(t, tc.coord, ct, delta)
		got := skylineIDs(t, rec)
		ref.check(t, delta, got)
		if delta&mask.Bit(0) != 0 {
			if trips == 0 {
				t.Fatalf("δ=%b changed, but its read after the flush made no shard request", delta)
			}
			if !slices.ContainsFunc(ids, func(id int32) bool { return slices.Contains(got, id) }) {
				t.Fatalf("δ=%b: %v shows none of the inserted %v", delta, got, ids)
			}
			continue
		}
		if trips != 0 {
			t.Fatalf("δ=%b is untouched, but its read after the flush made %d shard requests", delta, trips)
		}
		if !bytes.Equal(rec.Body.Bytes(), warm[delta].Body.Bytes()) {
			t.Fatalf("δ=%b: bytes changed:\n%s\nwant\n%s", delta, rec.Body, warm[delta].Body)
		}
		if a, b := rec.Header().Get("Etag"), warm[delta].Header().Get("Etag"); a == "" || a != b {
			t.Fatalf("δ=%b: ETag %q, want %q", delta, a, b)
		}
	}
}

// TestCoordinatorRacingFlushesNeverServeStale: two writers each insert a
// point dominating everything before it and flush, concurrently, so that one
// flush often drains the other's point and comes back empty with the other's
// epoch. After each writer's own acknowledgement its reads must show its
// point or a later one, and once both stop every subspace matches one node.
func TestCoordinatorRacingFlushesNeverServeStale(t *testing.T) {
	const writers, rounds = 2, 10
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 91)
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, fastOpts(obs.NewRegistry()))
	ref := newRefNode(t, ds)

	do := func(method, path string, body, out any) error {
		var b []byte
		if body != nil {
			var err error
			if b, err = json.Marshal(body); err != nil {
				return err
			}
		}
		rec := httptest.NewRecorder()
		tc.coord.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	var next atomic.Int64
	var mu sync.Mutex
	rankOf := map[int32]int64{} // global id -> its rank; higher dominates lower
	var points [][]float32
	var ids []int32
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := next.Add(1)
				p := []float32{-float32(k), -float32(k), -float32(k)}
				// The other writer's flush may drain this point as soon as the
				// shard buffers it, so its rank is recorded under the lock a
				// reader takes to look it up.
				var ins insertResponse
				mu.Lock()
				err := do(http.MethodPost, "/insert", insertRequest{Points: [][]float32{p}}, &ins)
				if err == nil {
					rankOf[ins.IDs[0]] = k
					points, ids = append(points, p), append(ids, ins.IDs[0])
				}
				mu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if err := do(http.MethodPost, "/flush", struct{}{}, nil); err != nil {
					errs <- err
					return
				}
				for _, dims := range []string{"0,1,2", "0", "1,2"} {
					var got skylineResponse
					if err := do(http.MethodGet, "/skyline?dims="+dims, nil, &got); err != nil {
						errs <- err
						return
					}
					mu.Lock()
					rank, known := int64(0), len(got.IDs) == 1
					if known {
						rank, known = rankOf[got.IDs[0]]
					}
					mu.Unlock()
					if !known || rank < k {
						errs <- fmt.Errorf("dims=%s after the flush of point %d acked: %v (rank %d)", dims, k, got.IDs, rank)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ref.insert(t, points, ids)
	ref.up.Flush()
	for delta := mask.Mask(1); delta <= mask.Full(3); delta++ {
		ref.check(t, delta, querySkyline(t, tc.coord, delta, http.StatusOK).IDs)
	}
}

// TestCoordinatorUnprovenFlushRollsEverything: a routed flush rolls only the
// subspaces it changed when it can prove that set, and every subspace
// otherwise. Each case's routed flush carries points above everything, one
// per shard — alone, such a flush changes no subspace and every read after
// it is a hit, as the control rounds show. It rolls everything when a shard
// compacted or flushed on its own before it (an epoch gap), when a shard's
// flush fails, and when a shard's reply lacks the transition fields.
func TestCoordinatorUnprovenFlushRollsEverything(t *testing.T) {
	const d = 3
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 200, d, 97)
	ct := &countingTransport{}
	opts := fastOpts(obs.NewRegistry())
	opts.Client = &http.Client{Transport: ct}
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, opts)
	setBreakers(tc.coord, 1000, breakerCooldown) // a failed flush must not bench shard 1
	ref := newRefNode(t, ds)

	// Shard 1 answers the coordinator through a wrapper the cases switch.
	var dead, strip atomic.Bool
	wrap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			http.Error(w, "injected fault: replica dead", http.StatusInternalServerError)
			return
		}
		if !strip.Load() || r.URL.Path != "/flush" {
			tc.shards[1][0].ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		tc.shards[1][0].ServeHTTP(rec, r)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		delete(body, "from")
		delete(body, "changed")
		server.WriteJSON(w, body)
	}))
	t.Cleanup(wrap.Close)
	tc.coord.curMap().shards[1].replicas[0].url = wrap.URL

	readAll := func(wantGather bool, after string) {
		t.Helper()
		for delta := mask.Mask(1); delta <= mask.Full(d); delta++ {
			rec, trips := countedRead(t, tc.coord, ct, delta)
			ref.check(t, delta, skylineIDs(t, rec))
			if gathered := trips > 0; gathered != wantGather {
				t.Fatalf("after %s: δ=%b gathered=%v, want %v", after, delta, gathered, wantGather)
			}
		}
	}
	round := 0
	quietInsert := func() {
		t.Helper()
		round++
		insertBoth(t, tc, ref, pointPerShard(tc, func(i int) []float32 {
			v := float32(10 + round)
			return []float32{v, v, v + float32(i)/64}
		}))
	}
	flush := func(status int) {
		t.Helper()
		postJSON(t, tc.coord, "/flush", struct{}{}, status)
		ref.up.Flush()
	}
	direct := func(s int, path string) {
		t.Helper()
		resp, err := http.Post(tc.servers[s][0].URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s to shard %d: status %d", path, s, resp.StatusCode)
		}
	}

	readAll(true, "the start")
	quietInsert()
	flush(http.StatusOK) // the first routed flush has no epoch to follow on
	readAll(true, "the first flush")
	quietInsert()
	flush(http.StatusOK)
	readAll(false, "a flush that changed nothing")

	for _, c := range []struct {
		name   string
		before func()
		status int
	}{
		{"a shard compacted directly", func() { direct(0, "/compact") }, http.StatusOK},
		{"a shard flushed directly", func() {
			// A point dominating everything, flushed behind the coordinator's
			// back: the cache is stale until the next routed flush.
			insertBoth(t, tc, ref, [][]float32{{-1, -1, -1}})
			direct(tc.coord.curMap().ring.owner(hashPoint([]float32{-1, -1, -1})), "/flush")
		}, http.StatusOK},
		{"a shard failed the flush", func() { dead.Store(true) }, http.StatusBadGateway},
		{"a reply without the fields", func() { strip.Store(true) }, http.StatusOK},
	} {
		quietInsert()
		c.before()
		flush(c.status)
		dead.Store(false)
		strip.Store(false)
		readAll(true, c.name)
		quietInsert()
		flush(http.StatusOK)
		readAll(false, "the flush after "+c.name)
	}
}

// TestQuerySubspaceReadsWhatParseQueryReads: the cache key's subspace is read
// off the raw query in place, so wherever that read succeeds it must name the
// subspace the query is answered for — the one url.ParseQuery and
// server.ParseDims read.
func TestQuerySubspaceReadsWhatParseQueryReads(t *testing.T) {
	for _, raw := range []string{
		"dims=0,1,3", "explain=0&dims=2", "dims=1&dims=2", "dims=019", "a=b&&dims=4,0",
		"dims=0%2C1", "dim%73=0&dims=1", "x=1;dims=2&dims=3", "dims=0,+1", "dims", "dims=",
		"dims=0,", "dims=,1", "dims=a", "dims=20", "dims=99999999999999999999", "",
	} {
		delta, ok := querySubspace(raw)
		if !ok {
			continue
		}
		q, _ := url.ParseQuery(raw)
		_, want, msg := server.ParseDims(q.Get("dims"), mask.MaxDims)
		if msg == "" && delta != want {
			t.Errorf("%q: subspace %b, but the query is answered for %b", raw, delta, want)
		}
	}
	for raw, want := range map[string]mask.Mask{"dims=0,1,3": 0b1011, "explain=0&dims=2": 0b100, "dims=1&dims=2": 0b10} {
		if delta, ok := querySubspace(raw); !ok || delta != want {
			t.Errorf("%q: (%b, %v), want (%b, true)", raw, delta, ok, want)
		}
	}
}
