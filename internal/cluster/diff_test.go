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

// newSecondCoordinator stands up another coordinator over the same shard
// servers as tc — the pruned/unpruned byte-identity tests compare two
// independent gather paths against identical shard state.
func newSecondCoordinator(t *testing.T, tc *testCluster, copt CoordinatorOptions) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(tc.specs, copt)
	if err != nil {
		t.Fatalf("NewCoordinator (second): %v", err)
	}
	return coord
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
// (grid/angular permute rows; range preserves order, so concatenation is a
// no-op there).
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

// TestDifferentialPrunedVsUnprunedMatrix is the merge path's acceptance
// wall: across partition mode × shard count × pre-filter setting, the pruned
// coordinator's /skyline response must be byte-identical to the unpruned
// coordinator's over the same shards, and both must match a single-node build. The matrix runs on anticorrelated
// data — the distribution with the largest local skylines, i.e. pruning's
// hardest case for staying exact.
func TestDifferentialPrunedVsUnprunedMatrix(t *testing.T) {
	modes := []struct {
		name string
		mode skycube.PartitionMode
	}{
		{"roundrobin", skycube.RoundRobinPartition},
		{"range", skycube.RangePartition},
		{"grid", skycube.GridPartition},
		{"angular", skycube.AngularPartition},
	}
	shardCounts := []int{1, 2, 4}
	preKs := []int{0, 8}
	if testing.Short() {
		modes = modes[:2:2]
		modes = append(modes, struct {
			name string
			mode skycube.PartitionMode
		}{"grid", skycube.GridPartition})
		shardCounts = []int{2}
	}
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 240, 4, 41)
	reg := obs.NewRegistry()
	for _, mc := range modes {
		for _, k := range shardCounts {
			for _, preK := range preKs {
				// "extfalse" is a constant: the cells keep the ids they had next to
				// the S⁺ protocol's, so results stay comparable across that removal.
				t.Run(fmt.Sprintf("%s/k%d/extfalse/pre%d", mc.name, k, preK), func(t *testing.T) {
					tc := newTestCluster(t, ds, k, 1, mc.mode, CoordinatorOptions{})
					pruned := newSecondCoordinator(t, tc, CoordinatorOptions{
						Prune:              true,
						PreFilterK:         preK,
						PreFilterMinShards: 2,
						Metrics:            reg,
					})
					oracle := oracleDataset(t, tc, mc.mode, ds)
					cube, _, err := skycube.Build(oracle, skycube.Options{Threads: 2})
					if err != nil {
						t.Fatalf("single-node Build: %v", err)
					}
					for delta := mask.Mask(1); delta < 1<<4; delta++ {
						plain := queryRawSkyline(t, tc.coord, delta, http.StatusOK)
						fast := queryRawSkyline(t, pruned, delta, http.StatusOK)
						if !bytes.Equal(plain, fast) {
							t.Fatalf("subspace %b: pruned body differs from unpruned:\n  pruned:   %s\n  unpruned: %s",
								delta, fast, plain)
						}
						var resp skylineResponse
						mustUnmarshal(t, fast, &resp)
						want := cube.Skyline(skycube.Subspace(delta))
						if !equalIDs(resp.IDs, want) {
							t.Fatalf("subspace %b: cluster ids %v != single-node %v", delta, resp.IDs, want)
						}
					}
				})
			}
		}
	}
	// The matrix must not have passed vacuously: pruning really engaged on
	// the multi-shard cells, and never by giving up on a healthy cluster.
	if pruned := metricTotal(t, reg, "skycube_cluster_pruned_points_total"); pruned == 0 {
		t.Fatal("matrix passed but no points were ever pruned — the pruned path did not engage")
	}
	if fb := metricTotal(t, reg, "skycube_cluster_prune_fallbacks_total"); fb != 0 {
		t.Fatalf("pruned gather fell back %v times on healthy clusters", fb)
	}
}

// TestDifferentialPrunedAfterMutationsAndEpochRoll routes writes through the
// cluster and re-checks byte-identity at the new epoch vector: the pruned
// path's prelude/gather epoch validation must keep it exact across flushes,
// not just on static data.
func TestDifferentialPrunedAfterMutationsAndEpochRoll(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 43)
	tc := newTestCluster(t, ds, 3, 1, skycube.RoundRobinPartition, CoordinatorOptions{})
	reg := obs.NewRegistry()
	pruned := newSecondCoordinator(t, tc, CoordinatorOptions{
		Prune:              true,
		PreFilterK:         4,
		PreFilterMinShards: 2,
		Metrics:            reg,
	})

	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		plain := queryRawSkyline(t, tc.coord, delta, http.StatusOK)
		fast := queryRawSkyline(t, pruned, delta, http.StatusOK)
		if !bytes.Equal(plain, fast) {
			t.Fatalf("subspace %b pre-mutation: pruned body differs from unpruned", delta)
		}
	}

	ins := [][]float32{{0.01, 0.95, 0.4}, {0.95, 0.01, 0.6}, {0.4, 0.4, 0.005}}
	var iresp insertResponse
	mustUnmarshal(t, postJSON(t, tc.coord, "/insert", insertRequest{Points: ins}, http.StatusOK), &iresp)
	for i, id := range iresp.IDs {
		points[id] = ins[i]
	}
	del := []int32{1, 5, 9, 33}
	postJSON(t, tc.coord, "/delete", deleteRequest{IDs: del}, http.StatusOK)
	for _, id := range del {
		delete(points, id)
	}
	// Flush through both coordinators: shard epochs advance once per flush,
	// and each coordinator's own write generation must roll so neither
	// serves its pre-mutation fast-path entry.
	postJSON(t, tc.coord, "/flush", struct{}{}, http.StatusOK)
	postJSON(t, pruned, "/flush", struct{}{}, http.StatusOK)

	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		plain := queryRawSkyline(t, tc.coord, delta, http.StatusOK)
		fast := queryRawSkyline(t, pruned, delta, http.StatusOK)
		if !bytes.Equal(plain, fast) {
			t.Fatalf("subspace %b post-mutation: pruned body differs from unpruned:\n  pruned:   %s\n  unpruned: %s",
				delta, fast, plain)
		}
		var resp skylineResponse
		mustUnmarshal(t, fast, &resp)
		want := bruteSkyline(points, delta)
		if !equalIDs(resp.IDs, want) {
			t.Fatalf("subspace %b post-mutation: ids %v, want %v", delta, resp.IDs, want)
		}
	}
	if fb := metricTotal(t, reg, "skycube_cluster_prune_fallbacks_total"); fb != 0 {
		t.Fatalf("pruned gather fell back %v times with no concurrent writers", fb)
	}
}
