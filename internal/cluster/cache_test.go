// Tests of the cluster tier's materialized read path: the coordinator's
// write-generation memo (short-circuiting the fan-out entirely), its
// invalidation by routed writes, the never-cache-partial rule with
// Cache-Control: no-store, and the shard-level cuboid cache.
package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
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
		Timeout:     2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		Metrics:     reg,
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
	opts := fastOpts(reg)
	opts.BreakerThreshold = 1000 // keep probing the dead shard, no breaker latch
	tc := newTestCluster(t, ds, 2, 1, skycube.RoundRobinPartition, opts)
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
