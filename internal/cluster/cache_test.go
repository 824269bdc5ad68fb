// Tests of the cluster tier's materialized read path: the coordinator's
// write-generation memo (short-circuiting the fan-out entirely), its
// invalidation by routed flushes and only by them, the never-cache-partial
// rule with Cache-Control: no-store, and the shard-level cuboid cache.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
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

// TestShardCuboidCacheWarms checks the shard's cache on /shard/cuboid: the
// second identical fan-out request is a hit, counted under layer "shard",
// and byte-identical.
func TestShardCuboidCacheWarms(t *testing.T) {
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

	do := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/shard/cuboid?subspace=3", nil)
		rec := httptest.NewRecorder()
		sh.ServeHTTP(rec, req)
		return rec
	}
	first, second := do(), do()
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses %d, %d", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("shard cuboid bytes changed between cold and warm")
	}
	// The cached entry carries its content type: a hit is a frame too.
	for i, rec := range []*httptest.ResponseRecorder{first, second} {
		if ct := rec.Header().Get("Content-Type"); ct != "application/octet-stream" {
			t.Fatalf("request %d: Content-Type %q", i, ct)
		}
		if _, err := decodeCuboidFrame(rec.Body.Bytes(), 3); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if hits := reg.CounterM("skycube_cache_hits_total", "", "layer", "shard").Value(); hits < 1 {
		t.Fatalf("no shard cache hit recorded; hits=%v", hits)
	}
	// The cuboid response revalidates too.
	req := httptest.NewRequest(http.MethodGet, "/shard/cuboid?subspace=3", nil)
	req.Header.Set("If-None-Match", first.Header().Get("Etag"))
	rec := httptest.NewRecorder()
	sh.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Fatalf("cuboid If-None-Match: status %d, want 304", rec.Code)
	}
}
