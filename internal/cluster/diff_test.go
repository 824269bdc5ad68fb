// Cluster differential tests: a K-shard scatter-gather cluster must answer
// every subspace query with exactly the ids the single-node Build
// materialises — across distributions, dimensionalities, shard counts,
// and partition modes.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

// assertClusterMatchesSingleNode queries every non-empty subspace through
// the coordinator and compares against the single-node skycube.
func assertClusterMatchesSingleNode(t *testing.T, tc *testCluster, ds *skycube.Dataset) {
	t.Helper()
	cube, _, err := skycube.Build(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatalf("single-node Build: %v", err)
	}
	d := ds.Dims()
	for delta := mask.Mask(1); delta < 1<<uint(d); delta++ {
		got := querySkyline(t, tc.coord, delta, http.StatusOK)
		if got.Partial {
			t.Fatalf("subspace %d: partial response from a healthy cluster", delta)
		}
		want := cube.Skyline(skycube.Subspace(delta))
		if !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d: cluster ids %v != single-node %v (candidates %d)",
				delta, got.IDs, want, got.Candidates)
		}
	}
}

func TestDifferentialClusterGrid(t *testing.T) {
	dists := []struct {
		name string
		dist skycube.Distribution
	}{
		{"correlated", skycube.Correlated},
		{"independent", skycube.Independent},
		{"anticorrelated", skycube.Anticorrelated},
	}
	maxD := 6
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		maxD = 4
		shardCounts = []int{1, 2}
	}
	for _, dc := range dists {
		for d := 2; d <= maxD; d++ {
			n := 400
			ds := skycube.GenerateSynthetic(dc.dist, n, d, int64(31*d)+7)
			for _, k := range shardCounts {
				t.Run(fmt.Sprintf("%s/d%d/k%d", dc.name, d, k), func(t *testing.T) {
					tc := newTestCluster(t, ds, k, 1, skycube.RoundRobinPartition, CoordinatorOptions{})
					assertClusterMatchesSingleNode(t, tc, ds)
				})
			}
		}
	}
}

func TestDifferentialClusterRangePartition(t *testing.T) {
	for d := 2; d <= 4; d++ {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("d%d/k%d", d, k), func(t *testing.T) {
				ds := skycube.GenerateSynthetic(skycube.Independent, 300, d, int64(d))
				tc := newTestCluster(t, ds, k, 1, skycube.RangePartition, CoordinatorOptions{})
				assertClusterMatchesSingleNode(t, tc, ds)
			})
		}
	}
}

func TestDifferentialClusterWithReplication(t *testing.T) {
	// R=2 with hedging enabled: replication must not perturb results.
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 300, 4, 23)
	tc := newTestCluster(t, ds, 2, 2, skycube.RoundRobinPartition, CoordinatorOptions{})
	assertClusterMatchesSingleNode(t, tc, ds)
}

func TestDifferentialClusterAfterMutations(t *testing.T) {
	// Route a mixed insert+delete workload through the coordinator, then
	// re-check every subspace against a single-node build of the same
	// logical dataset.
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 29)
	k := 2
	tc := newTestCluster(t, ds, k, 2, skycube.RoundRobinPartition, CoordinatorOptions{})

	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	ins := [][]float32{{0.02, 0.9, 0.4}, {0.9, 0.02, 0.6}, {0.3, 0.3, 0.01}}
	var iresp insertResponse
	mustUnmarshal(t, postJSON(t, tc.coord, "/insert", insertRequest{Points: ins}, http.StatusOK), &iresp)
	for i, id := range iresp.IDs {
		points[id] = ins[i]
	}
	del := []int32{0, 3, 17, 42}
	postJSON(t, tc.coord, "/delete", deleteRequest{IDs: del}, http.StatusOK)
	for _, id := range del {
		delete(points, id)
	}
	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)

	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		got := querySkyline(t, tc.coord, delta, http.StatusOK)
		want := bruteSkyline(points, delta)
		if !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d after mutations: ids %v, want %v", delta, got.IDs, want)
		}
	}
	// Replicas must have stayed identical: ask each replica of each shard
	// for the full-space cuboid and compare.
	for s, reps := range tc.shards {
		var first *cuboidFrame
		for rep, sh := range reps {
			frame := fetchCuboid(t, sh, "/shard/cuboid?subspace=7", 7)
			if rep == 0 {
				first = frame
			} else if !reflect.DeepEqual(first, frame) {
				t.Fatalf("shard %d replicas diverged: %+v vs %+v", s, first, frame)
			}
		}
	}
}

func mustUnmarshal(t *testing.T, b []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

// queryRawSkyline issues GET /skyline and returns the raw response body.
func queryRawSkyline(t *testing.T, h http.Handler, delta mask.Mask, wantStatus int) []byte {
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
	return rec.Body.Bytes()
}

// oracleDataset returns the dataset whose single-node skyline uses the same
// global ids the cluster serves: the original dataset for round-robin
// (id = original row), the shard concatenation for positional modes
// (angular permutes rows; range preserves order, so concatenation is a no-op
// there).
func oracleDataset(t *testing.T, tc *testCluster, mode skycube.PartitionMode, ds *skycube.Dataset) *skycube.Dataset {
	t.Helper()
	if !mode.Positional() {
		return ds
	}
	rows := make([][]float32, 0, ds.Len())
	for _, part := range tc.parts {
		for i := 0; i < part.Len(); i++ {
			rows = append(rows, part.Point(i))
		}
	}
	oracle, err := skycube.DatasetFromRows(rows)
	if err != nil {
		t.Fatalf("oracle concat: %v", err)
	}
	return oracle
}

// metricTotal sums every sample of the named metric family in reg.
func metricTotal(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse metric line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestDifferentialClusterPartitionModes: across partition mode × shard
// count, every subspace the coordinator answers matches a single-node build
// in the mode's id space. Anticorrelated data — the distribution with the
// largest local skylines, the merge's hardest case.
func TestDifferentialClusterPartitionModes(t *testing.T) {
	modes := []struct {
		name string
		mode skycube.PartitionMode
	}{
		{"roundrobin", skycube.RoundRobinPartition},
		{"range", skycube.RangePartition},
		{"angular", skycube.AngularPartition},
	}
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		shardCounts = []int{2}
	}
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 240, 4, 41)
	for _, mc := range modes {
		for _, k := range shardCounts {
			t.Run(fmt.Sprintf("%s/k%d", mc.name, k), func(t *testing.T) {
				tc := newTestCluster(t, ds, k, 1, mc.mode, CoordinatorOptions{})
				assertClusterMatchesSingleNode(t, tc, oracleDataset(t, tc, mc.mode, ds))
			})
		}
	}
}

// countingTransport counts the round trips of a coordinator's client.
type countingTransport struct{ trips atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.trips.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestCoordinatorPruneOptionIsInert pins what benchmark/probes.go relies on while
// CoordinatorOptions.Prune outlives the pruned gather: a coordinator built
// with it set answers every subspace byte-identically to one built from the
// zero options, in exactly one request per shard per cold query.
func TestCoordinatorPruneOptionIsInert(t *testing.T) {
	const k = 3
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 240, 4, 41)
	tc := newTestCluster(t, ds, k, 1, skycube.RoundRobinPartition, CoordinatorOptions{})
	ct := &countingTransport{}
	flagged, err := NewCoordinator(tc.specs, CoordinatorOptions{
		Prune: true, DisableCache: true, Client: &http.Client{Transport: ct},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flagged.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	for delta := mask.Mask(1); delta < 1<<4; delta++ {
		before := ct.trips.Load()
		got := queryRawSkyline(t, flagged, delta, http.StatusOK)
		if trips := ct.trips.Load() - before; trips != k {
			t.Fatalf("subspace %b: %d shard requests for one cold query, want %d", delta, trips, k)
		}
		if want := queryRawSkyline(t, tc.coord, delta, http.StatusOK); !bytes.Equal(got, want) {
			t.Fatalf("subspace %b: Prune: true answers\n  %s\nzero options answer\n  %s", delta, got, want)
		}
	}
}
