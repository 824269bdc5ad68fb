// Pruning-path tests at the protocol and chaos level: the /shard/skymeta
// prelude and /shard/cuboid filter parameter, and the pruned gather's
// degradation contract — a pre-filter racing a flush epoch advance or a
// shard death must fall back to the unpruned path or an honest 206, with
// the fallback recorded in metrics and trace events, never a silently
// wrong answer.
package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

func getJSON(t *testing.T, h http.Handler, path string, wantStatus int, v interface{}) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", path, rec.Code, wantStatus, rec.Body.String())
	}
	if v != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
}

func TestShardSkymetaEndpoint(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 200, 3, 61)
	sh, err := NewShard(ds, skycube.Options{Threads: 2}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		cuboid := fetchCuboid(t, sh, fmt.Sprintf("/shard/cuboid?subspace=%d", delta), delta)
		var meta skymetaResponse
		getJSON(t, sh, fmt.Sprintf("/shard/skymeta?subspace=%d&k=3", delta), http.StatusOK, &meta)

		if meta.Count != len(cuboid.ids) || meta.Epoch != cuboid.epoch {
			t.Fatalf("subspace %d: skymeta (count %d, epoch %d) disagrees with cuboid (count %d, epoch %d)",
				delta, meta.Count, meta.Epoch, len(cuboid.ids), cuboid.epoch)
		}
		// The frame carries δ's columns only; the members' full coordinates
		// are the dataset's (a lone shard's global id is its row).
		members := make([][]float32, len(cuboid.ids))
		for i, id := range cuboid.ids {
			members[i] = ds.Point(int(id))
			for j, dim := range mask.Dims(delta) {
				if cuboid.cols[j][i] != members[i][dim] {
					t.Fatalf("subspace %d: id %d column %d = %v, want %v", delta, id, j, cuboid.cols[j][i], members[i][dim])
				}
			}
		}
		// The corner must tightly bound every member, and each corner
		// coordinate must be attained by some member.
		for j := 0; j < 3; j++ {
			lo, hi := members[0][j], members[0][j]
			for _, p := range members {
				if p[j] < meta.Min[j] || p[j] > meta.Max[j] {
					t.Fatalf("subspace %d: member coord %v outside corner [%v,%v]", delta, p[j], meta.Min[j], meta.Max[j])
				}
				if p[j] < lo {
					lo = p[j]
				}
				if p[j] > hi {
					hi = p[j]
				}
			}
			if lo != meta.Min[j] || hi != meta.Max[j] {
				t.Fatalf("subspace %d dim %d: corner [%v,%v] not tight, members span [%v,%v]",
					delta, j, meta.Min[j], meta.Max[j], lo, hi)
			}
		}
		// Reps are actual members, sorted by ascending coordinate sum over δ.
		if len(meta.Reps) != min(3, meta.Count) {
			t.Fatalf("subspace %d: %d reps, want %d", delta, len(meta.Reps), min(3, meta.Count))
		}
		prev := float64(-1 << 30)
		for _, rep := range meta.Reps {
			var sum float64
			found := false
			for j := 0; j < 3; j++ {
				if delta&mask.Bit(j) != 0 {
					sum += float64(rep[j])
				}
			}
			for _, p := range members {
				same := true
				for j := range p {
					if p[j] != rep[j] {
						same = false
						break
					}
				}
				if same {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("subspace %d: rep %v is not a cuboid member", delta, rep)
			}
			if sum < prev {
				t.Fatalf("subspace %d: reps not sorted by δ-sum", delta)
			}
			prev = sum
		}
	}

	// Parameter validation.
	for _, bad := range []string{
		"/shard/skymeta?subspace=0",
		"/shard/skymeta?subspace=8",
		"/shard/skymeta?subspace=7&k=-1",
		"/shard/skymeta?subspace=7&k=abc",
		"/shard/skymeta?subspace=7&extended=true",
		"/shard/skymeta?subspace=7&filter=0.5,0.5,0.5",
		fmt.Sprintf("/shard/skymeta?subspace=7&k=%d", maxSkymetaReps+1),
	} {
		getJSON(t, sh, bad, http.StatusBadRequest, nil)
	}
}

func TestShardCuboidFilterParam(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 200, 3, 67)
	sh, err := NewShard(ds, skycube.Options{Threads: 2}, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	const path = "/shard/cuboid?subspace=7"
	unfiltered := fetchCuboid(t, sh, path, 7)
	total := len(unfiltered.ids)

	// A filter point dominating part of the local skyline: the count shrinks,
	// filtered grows, and their sum stays the full local cuboid size.
	// The filter point is itself a local member: it dominates nothing of its
	// own skyline (members are mutually undominated), so nothing is dropped.
	filter := encodePointList([][]float32{ds.Point(int(unfiltered.ids[total/2]))})
	got := fetchCuboid(t, sh, path+"&filter="+url.QueryEscape(filter), 7)
	if len(got.ids) != total || got.filtered != 0 {
		t.Fatalf("a shard's own member as filter: count %d filtered %d, want %d/0", len(got.ids), got.filtered, total)
	}
	// An overwhelming foreign witness prunes everything.
	strong := encodePointList([][]float32{{-1000, -1000, -1000}})
	got = fetchCuboid(t, sh, path+"&filter="+url.QueryEscape(strong), 7)
	if len(got.ids) != 0 || got.filtered != total {
		t.Fatalf("overwhelming filter: count %d filtered %d, want 0/%d", len(got.ids), got.filtered, total)
	}
	// Survivors under a partial filter are exactly the undominated members.
	weak := [][]float32{{0.2, 0.2, 0.2}}
	got = fetchCuboid(t, sh, path+"&filter="+url.QueryEscape(encodePointList(weak)), 7)
	if len(got.ids)+got.filtered != total {
		t.Fatalf("count %d + filtered %d != unfiltered %d", len(got.ids), got.filtered, total)
	}
	kept := map[int32]bool{}
	for _, id := range got.ids {
		kept[id] = true
	}
	for _, id := range unfiltered.ids {
		want := !dominatedByAny(weak, ds.Point(int(id)), mask.Mask(7))
		if kept[id] != want {
			t.Fatalf("id %d: shipped=%v, want %v", id, kept[id], want)
		}
	}

	// Malformed filters are caller errors.
	for _, bad := range []string{
		"1,2",       // wrong width
		"a,b,c",     // not numbers
		"1,2,3;4,5", // ragged
	} {
		getJSON(t, sh, "/shard/cuboid?subspace=7&filter="+url.QueryEscape(bad), http.StatusBadRequest, nil)
	}
}

// pathFaultHandler fails or intercepts requests by URL path.
type pathFaultHandler struct {
	inner    http.Handler
	deadPath atomic.Value // string: requests with this path prefix get a 500
	// beforeCuboid, when armed, runs once before the next /shard/cuboid is
	// forwarded (used to advance the shard's epoch mid-pruned-gather).
	beforeCuboid atomic.Value // func()
}

func (f *pathFaultHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if dp, _ := f.deadPath.Load().(string); dp != "" && strings.HasPrefix(r.URL.Path, dp) {
		http.Error(w, "injected fault: path dead", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == "/shard/cuboid" {
		if fn, _ := f.beforeCuboid.Load().(func()); fn != nil {
			f.beforeCuboid.Store(func() {}) // run at most once
			if fn != nil {
				fn()
			}
		}
	}
	f.inner.ServeHTTP(w, r)
}

// prunedChaosCluster is K=2 round-robin shards, one replica each, with
// path-level fault injection, plus a pruned and an unpruned coordinator
// over the same shards.
type prunedChaosCluster struct {
	pruned   *Coordinator
	unpruned *Coordinator
	shards   []*Shard
	faults   []*pathFaultHandler
	reg      *obs.Registry
}

func newPrunedChaosCluster(t *testing.T, ds *skycube.Dataset) *prunedChaosCluster {
	t.Helper()
	const k = 2
	parts, err := ds.Partition(k, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	cc := &prunedChaosCluster{reg: obs.NewRegistry()}
	var specs []ShardSpec
	for s, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{
			IDBase: s, IDStride: k,
			Requests: obs.NewRequestRing(64), SampleEvery: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		f := &pathFaultHandler{inner: sh}
		srv := httptest.NewServer(f)
		t.Cleanup(srv.Close)
		cc.shards = append(cc.shards, sh)
		cc.faults = append(cc.faults, f)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: k})
	}
	base := CoordinatorOptions{
		Timeout:      time.Second,
		HedgeDelay:   -1,
		MaxAttempts:  2,
		BackoffBase:  time.Millisecond,
		BackoffMax:   2 * time.Millisecond,
		DisableCache: true,
		Requests:     obs.NewRequestRing(64),
		SampleEvery:  1,
	}
	if cc.unpruned, err = NewCoordinator(specs, base); err != nil {
		t.Fatal(err)
	}
	pruneOpt := base
	pruneOpt.Prune = true
	pruneOpt.PreFilterK = 4
	pruneOpt.PreFilterMinShards = 2
	pruneOpt.Metrics = cc.reg
	pruneOpt.Requests = obs.NewRequestRing(64)
	if cc.pruned, err = NewCoordinator(specs, pruneOpt); err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestChaosPrunedEpochAdvanceFallsBack races the pre-filter against a flush
// epoch advance: the prelude observes epoch E, then the shard applies an
// insert and flushes to E+1 before serving its cuboid. The pruned gather
// must detect the mismatch, fall back to the unpruned path, and answer
// exactly for the post-flush data — with the fallback visible in metrics
// and in the ?explain=1 trace rendering.
func TestChaosPrunedEpochAdvanceFallsBack(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 71)
	cc := newPrunedChaosCluster(t, ds)

	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	// Arm shard 0: right before its next cuboid answer, insert a strongly
	// dominating point and flush — its serving epoch advances past what the
	// prelude saw.
	arm := func() {
		cc.faults[0].beforeCuboid.Store(func() {
			sh := cc.shards[0]
			body := `{"points":[[0.001,0.001,0.001]]}`
			req := httptest.NewRequest(http.MethodPost, "/insert", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			sh.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("arm insert: status %d: %s", rec.Code, rec.Body.String()))
			}
			req = httptest.NewRequest(http.MethodPost, "/flush", strings.NewReader("{}"))
			rec = httptest.NewRecorder()
			sh.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				panic(fmt.Sprintf("arm flush: status %d: %s", rec.Code, rec.Body.String()))
			}
		})
	}
	arm()
	// Shard 0 (base 0, stride 2) appends local row 100 -> global id 200.
	points[200] = []float32{0.001, 0.001, 0.001}

	got := querySkyline(t, cc.pruned, mask.Mask(7), http.StatusOK)
	if got.Partial {
		t.Fatal("epoch race degraded to partial despite healthy shards")
	}
	if want := bruteSkyline(points, mask.Mask(7)); !equalIDs(got.IDs, want) {
		t.Fatalf("post-race ids %v, want %v (silently wrong under epoch advance)", got.IDs, want)
	}
	m := metricsText(t, cc.reg)
	if !strings.Contains(m, `skycube_cluster_prune_fallbacks_total{reason="epoch_mismatch"}`) {
		t.Fatalf("epoch-mismatch fallback not counted; metrics:\n%s", m)
	}

	// Re-arm and run the same race under ?explain=1: the trace rendering
	// must carry the fallback reason.
	arm()
	points[202] = []float32{0.001, 0.001, 0.001}
	req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0,1,2&explain=1", nil)
	rec := httptest.NewRecorder()
	cc.pruned.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain status %d: %s", rec.Code, rec.Body.String())
	}
	var ex explainResponse
	mustUnmarshal(t, rec.Body.Bytes(), &ex)
	if ex.PruneFallback != "epoch_mismatch" {
		t.Fatalf("explain prune_fallback = %q, want epoch_mismatch (%s)", ex.PruneFallback, rec.Body.String())
	}

	// Steady state after the race: pruning works again, byte-identical to
	// the unpruned coordinator.
	for delta := mask.Mask(1); delta < 1<<3; delta++ {
		fast := querySkyline(t, cc.pruned, delta, http.StatusOK)
		plain := querySkyline(t, cc.unpruned, delta, http.StatusOK)
		if !equalIDs(fast.IDs, plain.IDs) || fast.Candidates != plain.Candidates {
			t.Fatalf("subspace %d post-race: pruned %v (cand %d) != unpruned %v (cand %d)",
				delta, fast.IDs, fast.Candidates, plain.IDs, plain.Candidates)
		}
	}
}

// TestChaosPrunedShardDeathDegradesHonestly kills a shard at each stage of
// the pruned gather: a dead prelude must fall back ("prelude_error"), a dead
// cuboid after a healthy prelude must fall back ("gather_error"), and since
// the shard has no surviving replica the fallback path answers an honest
// 206 with the shard named — never a fabricated complete answer.
func TestChaosPrunedShardDeathDegradesHonestly(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 73)
	// The surviving shard-0 view.
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	cube0, _, err := skycube.Build(parts[0], skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantSurvivors := func(delta mask.Mask) []int32 {
		local := cube0.Skyline(skycube.Subspace(delta))
		out := make([]int32, len(local))
		for i, row := range local {
			out[i] = row * 2
		}
		return out
	}

	for _, tt := range []struct {
		name, deadPath, reason string
	}{
		{"prelude-dead", "/shard/", "prelude_error"},
		{"cuboid-dead", "/shard/cuboid", "gather_error"},
	} {
		t.Run(tt.name, func(t *testing.T) {
			cc := newPrunedChaosCluster(t, ds)
			cc.faults[1].deadPath.Store(tt.deadPath)
			got := querySkyline(t, cc.pruned, mask.Mask(7), http.StatusPartialContent)
			if !got.Partial || len(got.FailedShards) != 1 || got.FailedShards[0] != "1" {
				t.Fatalf("partial=%v failed=%v, want honest 206 naming shard 1", got.Partial, got.FailedShards)
			}
			if want := wantSurvivors(7); !equalIDs(got.IDs, want) {
				t.Fatalf("surviving ids %v, want %v", got.IDs, want)
			}
			m := metricsText(t, cc.reg)
			if !strings.Contains(m, fmt.Sprintf(`skycube_cluster_prune_fallbacks_total{reason=%q}`, tt.reason)) {
				t.Fatalf("fallback reason %q not counted; metrics:\n%s", tt.reason, m)
			}
		})
	}
}

// TestChaosPrunedConcurrentUnderReplicaFlap hammers a pruned coordinator
// from many goroutines while a replica flaps — under -race this probes the
// pruned gather's concurrent machinery (prelude fan-out, late-skip cancels,
// fallback re-gather). With one replica of each shard always alive, every
// answer must be complete and exact, pruned or fallen back.
func TestChaosPrunedConcurrentUnderReplicaFlap(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 200, 3, 79)
	cc := newChaosCluster(t, ds, CoordinatorOptions{
		Timeout:            time.Second,
		HedgeDelay:         2 * time.Millisecond,
		BackoffBase:        time.Millisecond,
		BackoffMax:         2 * time.Millisecond,
		DisableCache:       true,
		Prune:              true,
		PreFilterK:         4,
		PreFilterMinShards: 2,
	})
	cube, _, err := skycube.Build(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go func() {
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
