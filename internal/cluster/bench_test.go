// Cluster serving benchmarks: the coordinator's write-generation memo
// versus a full scatter-gather-merge per query.
package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

// benchNopWriter mirrors the server package's benchmark writer.
type benchNopWriter struct {
	h http.Header
}

func (w *benchNopWriter) Header() http.Header         { return w.h }
func (w *benchNopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *benchNopWriter) WriteHeader(int)             {}

func (w *benchNopWriter) reset() {
	for k := range w.h {
		delete(w.h, k)
	}
}

// benchCluster wires a K=2, R=1 cluster over loopback HTTP. traced adds a
// request ring (SampleEvery 0) to coordinator and shards: tracing compiled
// in but sampled out, the configuration the 0-alloc bar must survive.
func benchCluster(b *testing.B, disableCache, traced bool) (*Coordinator, func()) {
	b.Helper()
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 2048, 4, 103)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		b.Fatal(err)
	}
	var cleanups []func()
	var specs []ShardSpec
	for s, part := range parts {
		so := ShardOptions{IDBase: s, IDStride: 2}
		if traced {
			so.Requests = obs.NewRequestRing(64)
		}
		sh, err := NewShard(part, skycube.Options{Threads: 2}, so)
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(sh)
		cleanups = append(cleanups, srv.Close, sh.Close)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: 2})
	}
	copt := CoordinatorOptions{
		Timeout:      5 * time.Second,
		DisableCache: disableCache,
	}
	if traced {
		copt.Requests = obs.NewRequestRing(64)
	}
	coord, err := NewCoordinator(specs, copt)
	if err != nil {
		b.Fatal(err)
	}
	return coord, func() {
		for _, f := range cleanups {
			f()
		}
	}
}

func benchClusterRequest(b *testing.B, coord *Coordinator, disabled bool) {
	b.Helper()
	u, err := url.Parse("/skyline?dims=0,1,3")
	if err != nil {
		b.Fatal(err)
	}
	req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
	w := &benchNopWriter{h: http.Header{}}
	coord.ServeHTTP(w, req) // learn dims; warm the memo when enabled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.reset()
		coord.ServeHTTP(w, req)
	}
}

// BenchmarkClusterServeHot: a warm coordinator serves the merged bytes
// with no shard traffic — no fan-out, no hedging, no merge, no encode.
func BenchmarkClusterServeHot(b *testing.B) {
	coord, done := benchCluster(b, false, false)
	defer done()
	benchClusterRequest(b, coord, false)
}

// BenchmarkClusterServeHotTraced: the warm memo hit with request rings
// wired everywhere but the query sampled out (no traceparent header,
// SampleEvery 0). Must match BenchmarkClusterServeHot's 0 allocs/op.
func BenchmarkClusterServeHotTraced(b *testing.B) {
	coord, done := benchCluster(b, false, true)
	defer done()
	benchClusterRequest(b, coord, false)
}

// BenchmarkClusterServeCold scatter-gathers and merges on every request
// (two HTTP round trips per query on loopback).
func BenchmarkClusterServeCold(b *testing.B) {
	coord, done := benchCluster(b, true, false)
	defer done()
	benchClusterRequest(b, coord, true)
}

// benchPrunedCluster wires a K-shard grid-partitioned cluster (positional id
// mapping) over anticorrelated data — the pruning benchmarks' fixture. Grid
// cells give each shard a tight bounding box, which is what the prelude's
// corners and reps exploit.
func benchPrunedCluster(b *testing.B, k int, copt CoordinatorOptions) (*Coordinator, func()) {
	b.Helper()
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 2048, 4, 103)
	parts, err := ds.Partition(k, skycube.GridPartition)
	if err != nil {
		b.Fatal(err)
	}
	var cleanups []func()
	var specs []ShardSpec
	base := 0
	for _, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{IDBase: base, IDStride: 1})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(sh)
		cleanups = append(cleanups, srv.Close, sh.Close)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: base, IDStride: 1})
		base += part.Len()
	}
	if copt.Timeout == 0 {
		copt.Timeout = 5 * time.Second
	}
	coord, err := NewCoordinator(specs, copt)
	if err != nil {
		b.Fatal(err)
	}
	return coord, func() {
		for _, f := range cleanups {
			f()
		}
	}
}

// reportShipped runs one instrumented query and reports the per-query
// candidate points actually shipped over the wire (and, for the pruned
// path, the estimated shard-response bytes saved) — the communication cost
// the pruned gather exists to cut. Shard state is static, so one
// measurement is exact for every iteration.
func reportShipped(b *testing.B, coord *Coordinator, reg *obs.Registry, path string) {
	b.Helper()
	before := struct{ pruned, saved float64 }{}
	if reg != nil {
		before.pruned = benchMetricTotal(b, reg, "skycube_cluster_pruned_points_total")
		before.saved = benchMetricTotal(b, reg, "skycube_cluster_bytes_saved_total")
	}
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("measurement query: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp skylineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	shipped := float64(resp.Candidates)
	if reg != nil {
		prunedPts := benchMetricTotal(b, reg, "skycube_cluster_pruned_points_total") - before.pruned
		shipped -= prunedPts
		b.ReportMetric(benchMetricTotal(b, reg, "skycube_cluster_bytes_saved_total")-before.saved, "wire_B_saved/op")
	}
	b.ReportMetric(shipped, "shipped_pts/op")
}

func benchMetricTotal(b *testing.B, reg *obs.Registry, name string) float64 {
	b.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		b.Fatal(err)
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
			b.Fatal(err)
		}
		total += v
	}
	return total
}

// BenchmarkClusterServeColdPruned: the communication-efficiency matrix —
// unpruned versus pruned cold gathers at K ∈ {2,4,8} on grid-partitioned
// anticorrelated data, reporting shipped candidate points per query
// alongside ns/op. The pruned rows must ship ≥2× fewer candidates at K=4
// (BENCH_serve.json records the measured ratio).
func BenchmarkClusterServeColdPruned(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		for _, prune := range []bool{false, true} {
			name := fmt.Sprintf("k%d/unpruned", k)
			if prune {
				name = fmt.Sprintf("k%d/pruned", k)
			}
			b.Run(name, func(b *testing.B) {
				copt := CoordinatorOptions{DisableCache: true}
				var reg *obs.Registry
				if prune {
					reg = obs.NewRegistry()
					copt.Prune = true
					copt.PreFilterK = 16
					copt.PreFilterMinShards = 2
					copt.Metrics = reg
				}
				coord, done := benchPrunedCluster(b, k, copt)
				defer done()
				u, err := url.Parse("/skyline?dims=0,1")
				if err != nil {
					b.Fatal(err)
				}
				req := &http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}}
				w := &benchNopWriter{h: http.Header{}}
				coord.ServeHTTP(w, req) // learn dims
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.reset()
					coord.ServeHTTP(w, req)
				}
				b.StopTimer()
				// After the loop: ResetTimer clears ReportMetric values, so
				// the shipped-candidates measurement must come last.
				reportShipped(b, coord, reg, "/skyline?dims=0,1")
			})
		}
	}
}

// BenchmarkClusterServeHotPruned: the warm write-generation memo with
// pruning enabled. The fast path must stay a map probe and a byte copy —
// CI holds this to the same 0 allocs/op as the unpruned hot path.
func BenchmarkClusterServeHotPruned(b *testing.B) {
	coord, done := benchPrunedCluster(b, 2, CoordinatorOptions{
		Prune: true, PreFilterK: 16, PreFilterMinShards: 2,
	})
	defer done()
	benchClusterRequest(b, coord, false)
}

// BenchmarkMergeFrames times the coordinator's merge alone, over frames built
// once outside the timer from the local skylines of a round-robin partition
// (through the wire codec, as the gather hands them over), and reports beside
// the nanoseconds the counts that do not depend on the host: candidates in,
// ids kept, 64-lane word sweeps. The shapes are the repository benchmark's
// cluster stages — wide: A d=6 n=10 000, narrow: A d=4 n=50 000, K=2 — plus a
// 5-d subspace and K=1, where the merge must cost no sweep at all.
func BenchmarkMergeFrames(b *testing.B) {
	for _, c := range []struct {
		name    string
		n, d, k int
		delta   mask.Mask
	}{
		{"A_d6_n10000_K2_full", 10000, 6, 2, mask.Full(6)},
		{"A_d6_n10000_K2_5d", 10000, 6, 2, mask.Full(5)},
		{"A_d4_n50000_K2_full", 50000, 4, 2, mask.Full(4)},
		{"A_d6_n10000_K1_full", 10000, 6, 1, mask.Full(6)},
	} {
		b.Run(c.name, func(b *testing.B) {
			ds := skycube.GenerateSynthetic(skycube.Anticorrelated, c.n, c.d, 103)
			parts, err := ds.Partition(c.k, skycube.RoundRobinPartition)
			if err != nil {
				b.Fatal(err)
			}
			frames := make([]*cuboidFrame, c.k)
			for s, part := range parts {
				cube, _, err := skycube.Build(part, skycube.Options{Threads: 2})
				if err != nil {
					b.Fatal(err)
				}
				local := cube.Skyline(skycube.Subspace(c.delta))
				ids := make([]int32, len(local))
				for i, row := range local {
					ids[i] = int32(s) + row*int32(c.k)
				}
				wire := encodeCuboidFrame(c.delta, 1, 0, ids, func(i int) []float32 { return part.Point(int(local[i])) })
				if frames[s], err = decodeCuboidFrame(wire, c.delta); err != nil {
					b.Fatal(err)
				}
			}
			var kept []int32
			var st mergeStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kept, st = mergeFrames(frames, c.delta)
			}
			b.ReportMetric(float64(st.cands), "cands/op")
			b.ReportMetric(float64(len(kept)), "kept/op")
			b.ReportMetric(float64(st.sweeps), "sweeps/op")
		})
	}
}
