// Cluster serving benchmarks: the coordinator's write-generation memo
// versus a full scatter-gather-merge per query.
package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/url"
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
				wire := encodeCuboidFrame(c.delta, 1, ids, func(i int) []float32 { return part.Point(int(local[i])) })
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
