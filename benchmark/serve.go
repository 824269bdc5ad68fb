package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skycube"
	cl "skycube/internal/cluster"
	"skycube/internal/data"
	"skycube/internal/gen"
)

const (
	shards      = 2  // K, round-robin, one replica each
	writeEvery  = 50 // every 50th operation is a write
	writePoints = 20 // POST /insert of 20 points, then POST /flush
	checkEvery  = 50 // one verifiable read in 50 is checked against the oracle
	// popularityShift is how many operations one ranking of the subspaces lasts.
	popularityShift = 100
	spanHeader      = "X-Bench-Span"
	opHeader        = "X-Bench-Op"
	clientTimout    = 10 * time.Second
)

// clusterOptions vary the coordinator for the cold-gather probes.
type clusterOptions struct {
	disableCache, prune bool
}

// cluster is two shards and a coordinator as in-process HTTP servers over
// loopback TCP. On the traced run every handler and the coordinator's HTTP
// client are wrapped to record spans, and all nodes share one registry.
type cluster struct {
	tr      *tracer
	reg     *skycube.Metrics
	shards  []*cl.Shard
	servers []*httptest.Server // the shards'
	specs   []cl.ShardSpec
	front   *httptest.Server // the coordinator's
	wire    *countingTransport
	client  *http.Client // the load generator's
}

func startCluster(ds *skycube.Dataset, tr *tracer, opt clusterOptions) (*cluster, error) {
	c := &cluster{tr: tr}
	if tr != nil {
		c.reg = skycube.NewMetrics()
	}
	parts, err := ds.Partition(shards, skycube.RoundRobinPartition)
	if err != nil {
		return nil, err
	}
	for s, part := range parts {
		sh, err := cl.NewShard(part, skycube.Options{Threads: threads},
			cl.ShardOptions{IDBase: s, IDStride: shards, Metrics: c.reg})
		if err != nil {
			c.close()
			return nil, err
		}
		srv := httptest.NewServer(c.traced(sh, "shard"))
		c.shards = append(c.shards, sh)
		c.servers = append(c.servers, srv)
		c.specs = append(c.specs, cl.ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: shards})
	}
	coord, err := c.coordinator(opt)
	if err != nil {
		c.close()
		return nil, err
	}
	c.front = httptest.NewServer(c.traced(coord, "coordinator"))
	c.client = &http.Client{Timeout: clientTimout,
		Transport: &http.Transport{MaxIdleConnsPerHost: threads}}
	return c, nil
}

// coordinator returns a coordinator over the cluster's shards.
func (c *cluster) coordinator(opt clusterOptions) (*cl.Coordinator, error) {
	copt := cl.CoordinatorOptions{DisableCache: opt.disableCache, Prune: opt.prune, Metrics: c.reg}
	if c.tr != nil {
		if c.wire == nil {
			c.wire = &countingTransport{tr: c.tr, inner: &http.Transport{MaxIdleConnsPerHost: 2 * threads}}
		}
		copt.Client = &http.Client{Transport: c.wire}
	}
	return cl.NewCoordinator(c.specs, copt)
}

func (c *cluster) close() {
	if c == nil {
		return
	}
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.front != nil {
		c.front.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, sh := range c.shards {
		sh.Close()
	}
	if c.wire != nil {
		c.wire.inner.CloseIdleConnections()
	}
}

type spanKey struct{}

// spanRef is the span a request belongs under, carried in the request
// context inside a process and in two headers between processes.
type spanRef struct{ id, op int }

func refOf(r *http.Request) spanRef {
	id, err1 := strconv.Atoi(r.Header.Get(spanHeader))
	op, err2 := strconv.Atoi(r.Header.Get(opHeader))
	if err1 != nil || err2 != nil {
		return spanRef{-1, 0}
	}
	return spanRef{id, op}
}

func (s spanRef) stamp(r *http.Request) {
	r.Header.Set(spanHeader, strconv.Itoa(s.id))
	r.Header.Set(opHeader, strconv.Itoa(s.op))
}

// traced wraps a node's handler with a span per request, named by the node's
// role and the path. A shard's endpoints are the embedded node server's,
// except the cluster protocol under /shard/. The untraced run gets the
// handler itself.
func (c *cluster) traced(h http.Handler, role string) http.Handler {
	if c.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref, layer := refOf(r), "cluster"
		if role == "shard" && !strings.HasPrefix(r.URL.Path, "/shard/") {
			layer = "server"
		}
		id := c.tr.begin(layer, role+" "+r.URL.Path, ref.id, ref.op)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{id, ref.op})))
		c.tr.end(id)
	})
}

// countingTransport is the coordinator's HTTP client transport on the traced
// run: a span per round trip to a shard — covering the whole response body —
// and counts of round trips and bytes received.
type countingTransport struct {
	tr     *tracer
	inner  *http.Transport
	trips  atomic.Int64
	bytes  atomic.Int64
	readMu sync.Mutex
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{-1, 0} // the coordinator's own traffic, such as its refresh at start
	}
	id := t.tr.begin("wire", "round_trip "+r.URL.Path, ref.id, ref.op)
	defer t.tr.end(id)
	out := r.Clone(r.Context())
	spanRef{id, ref.op}.stamp(out)
	resp, err := t.inner.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	t.trips.Add(1)
	t.bytes.Add(int64(len(body)))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// serveOp is one operation of the seeded trace.
type serveOp struct {
	delta  skycube.Subspace // a read of this subspace when points == nil
	path   string
	points [][]float32 // a write of these points
	write  int         // index among the writes
}

// serveTrace makes n operations: reads of subspaces drawn Zipf(1.1) over a
// ranking of all 2^d − 1, and every writeEvery-th an insert of writePoints
// points taken from pool. The ranking — which subspaces are hot — is drawn
// anew every popularityShift operations, so the hot set drifts. A read costs
// by the size of its skyline, which spans three orders of magnitude over the
// subspaces, and with the draws made from the run's seed ten seeds spread the
// closed loop's throughput by a third. So the rankings and the draws are the
// workload's, as the points are, and the run's seed orders the reads between
// one write and the next: the subspaces read at each write generation, and so
// the replies computed and the replies served from a cache, are the same for
// every seed.
func serveTrace(n, d int, seed, dataSeed int64, pool *data.Dataset) []serveOp {
	draws := rand.New(rand.NewSource(dataSeed))
	order := rand.New(rand.NewSource(seed))
	subspaces := skycube.AllSubspaces(d)
	zipf := rand.NewZipf(draws, 1.1, 1, uint64(len(subspaces)-1))
	ops := make([]serveOp, n)
	shuffle := func(reads []serveOp) {
		order.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	}
	writes := 0
	for i := range ops {
		if i%popularityShift == 0 {
			draws.Shuffle(len(subspaces), func(i, j int) { subspaces[i], subspaces[j] = subspaces[j], subspaces[i] })
		}
		if i%writeEvery == writeEvery-1 {
			pts := make([][]float32, writePoints)
			for k := range pts {
				pts[k] = pool.Point(writes*writePoints + k)
			}
			ops[i] = serveOp{points: pts, write: writes}
			writes++
			shuffle(ops[i+1-writeEvery : i])
			continue
		}
		delta := subspaces[zipf.Uint64()]
		ops[i] = serveOp{delta: delta, path: skylinePath(delta)}
	}
	shuffle(ops[n-n%writeEvery:])
	return ops
}

// skylinePath is the read of subspace delta.
func skylinePath(delta skycube.Subspace) string {
	dims := skycube.SubspaceDims(delta)
	list := make([]string, len(dims))
	for i, j := range dims {
		list[i] = strconv.Itoa(j)
	}
	return "/skyline?dims=" + strings.Join(list, ",")
}

// skylineBody is the part of the coordinator's /skyline reply the benchmark reads.
type skylineBody struct {
	IDs        []int32 `json:"ids"`
	Count      int     `json:"count"`
	Candidates int     `json:"candidates"`
	Partial    bool    `json:"partial"`
}

// sampledRead is a read kept for the oracle: no write was in flight from
// before it was sent until after it returned, so it must equal the skyline
// over the base points and the first gen completed writes.
type sampledRead struct {
	gen   int
	delta skycube.Subspace
	body  []byte
}

// driver issues the trace's operations against the coordinator and keeps
// what the output checks need.
type driver struct {
	c   *cluster
	tr  *tracer
	ops []serveOp

	failed []string // per operation: "" or why it failed

	started atomic.Int64 // writes begun
	mu      sync.Mutex
	order   []int     // writes in the order they completed; its length is the write generation
	ids     [][]int32 // per write: the global ids the cluster assigned
	seen    int       // verifiable reads so far
	samples []sampledRead

	// traced run: sums over the reads
	reads, candidates, kept int64
}

func (dr *driver) get(path string, ref spanRef) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, dr.c.front.URL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return dr.send(req, ref)
}

func (dr *driver) post(path string, body any, ref spanRef) (int, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, dr.c.front.URL+path, bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return dr.send(req, ref)
}

func (dr *driver) send(req *http.Request, ref spanRef) (int, []byte, error) {
	if dr.tr != nil {
		ref.stamp(req)
	}
	resp, err := dr.c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// do issues operation i (offset by base in the operation ids of the trace).
func (dr *driver) do(i, root int) {
	o := dr.ops[i]
	if o.points != nil {
		dr.write(i, o, root)
		return
	}
	done := len(dr.lockedOrder())
	begun := int(dr.started.Load())
	id := dr.tr.begin("benchmark", "read", root, i+1)
	status, body, err := dr.get(o.path, spanRef{id, i + 1})
	dr.tr.end(id)
	if err != nil || status != http.StatusOK {
		dr.failed[i] = fmt.Sprintf("GET %s: status %d, %v", o.path, status, err)
		return
	}
	var reply skylineBody
	if dr.tr != nil { // the traced run reads every reply's counts
		if err := json.Unmarshal(body, &reply); err != nil {
			dr.failed[i] = fmt.Sprintf("GET %s: %v", o.path, err)
			return
		}
	}
	dr.mu.Lock()
	dr.reads++
	dr.candidates += int64(reply.Candidates)
	dr.kept += int64(reply.Count)
	if done == begun && int(dr.started.Load()) == begun { // verifiable
		if dr.seen%checkEvery == 0 {
			dr.samples = append(dr.samples, sampledRead{gen: begun, delta: o.delta, body: body})
		}
		dr.seen++
	}
	dr.mu.Unlock()
}

func (dr *driver) lockedOrder() []int {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.order
}

func (dr *driver) write(i int, o serveOp, root int) {
	dr.started.Add(1)
	id := dr.tr.begin("benchmark", "write", root, i+1)
	ref := spanRef{id, i + 1}
	var reply struct {
		IDs []int32 `json:"ids"`
	}
	status, body, err := dr.post("/insert", map[string]any{"points": o.points}, ref)
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &reply)
	}
	if err != nil || status != http.StatusOK || len(reply.IDs) != len(o.points) {
		dr.failed[i] = fmt.Sprintf("POST /insert: status %d, %d ids, %v", status, len(reply.IDs), err)
	} else if status, _, err = dr.post("/flush", struct{}{}, ref); err != nil || status != http.StatusOK {
		dr.failed[i] = fmt.Sprintf("POST /flush: status %d, %v", status, err)
	}
	dr.tr.end(id)
	// Completed, even if refused: from here on reads are verifiable again
	// (a failed write has already failed the run).
	dr.mu.Lock()
	dr.ids[o.write] = reply.IDs
	dr.order = append(dr.order, o.write)
	dr.mu.Unlock()
}

// serveStage drains the seeded trace against the cluster: first a closed loop
// of two clients that each wait for their reply (throughput), then an open
// loop at the workload's fixed rate, each request timed from its due instant
// (latency). Afterwards, outside the timed regions, every sampled read is
// compared with a single node's skyline over the same points at that write
// generation, and the final state with a one-shot QSkycube build.
func serveStage(fx *fixture, cfg config, tr *tracer, t *tally, m metricSet, finalCheck bool) ([]stageSpan, error) {
	w := cfg.w
	total := w.closedOps + w.openOps
	pool := gen.Synthetic(w.serve.dist, (total/writeEvery+1)*writePoints, w.serve.d, subSeed(cfg.dataSeed, writeInput))
	dr := &driver{c: fx.cluster, tr: tr, ops: serveTrace(total, w.serve.d, subSeed(cfg.seed, queryInput), subSeed(cfg.dataSeed, queryInput), pool)}
	dr.failed = make([]string, total)
	dr.ids = make([][]int32, total/writeEvery+1)
	trips0, bytes0 := fx.cluster.wireCounts()
	firstSpan := tr.len()

	rootClosed := tr.begin("benchmark", "serve_closed", -1, 0)
	closed := runLoad(w.closedOps, threads, 0, func(i int) { dr.do(i, rootClosed) })
	tr.end(rootClosed)
	rootOpen := tr.begin("benchmark", "serve_open", -1, 0)
	open := runLoad(w.openOps, threads, w.openRate, func(i int) { dr.do(w.closedOps+i, rootOpen) })
	tr.end(rootOpen)

	for i, why := range dr.failed {
		t.check(why == "", "operation %d: %s", i, why)
	}
	if err := dr.checkAgainstSingleNode(fx, cfg, pool, t, finalCheck); err != nil {
		return nil, err
	}

	closedReads := 0
	for _, o := range dr.ops[:w.closedOps] {
		if o.points == nil {
			closedReads++
		}
	}
	var openMs []float64
	for i, o := range dr.ops[w.closedOps:] {
		if o.points == nil {
			openMs = append(openMs, millis(open.lat[i]))
		}
	}
	if tr == nil {
		m.add("query_per_s", float64(closedReads)/closed.wall.Seconds())
		m.add("query_p50_ms", median(openMs))
	} else {
		over := 0
		for _, ms := range openMs {
			if ms > 25 {
				over++
			}
		}
		m.add("cluster.open_p99_ms", quantile(openMs, 0.99))
		m.add("cluster.open_over_25ms_frac", float64(over)/float64(len(openMs)))
		m.add("benchmark.max_late_ms", millis(open.maxLate))
		trips, bytes := fx.cluster.wireCounts()
		dr.layerMetrics(fx.cluster, m, firstSpan, float64(trips-trips0), float64(bytes-bytes0))
	}
	return []stageSpan{
		{name: "serve closed loop", roots: tr.roots(rootClosed), wall: closed.wall, parallel: threads},
		// At a quarter of capacity the open loop mostly has one operation in flight.
		{name: "serve open loop", roots: tr.roots(rootOpen), wall: open.wall, parallel: 1},
	}, nil
}

func (c *cluster) wireCounts() (trips, bytes int64) {
	if c.wire == nil {
		return 0, 0
	}
	return c.wire.trips.Load(), c.wire.bytes.Load()
}

// layerMetrics derives the serve stage's per-layer numbers from its spans
// (those from firstSpan on), the wire counts and the nodes' own cache counters.
func (dr *driver) layerMetrics(c *cluster, m metricSet, firstSpan int, trips, bytes float64) {
	spans := dr.tr.snapshot()
	self := selfTimes(spans)
	var coordSelf, shardCuboid, insert time.Duration
	var coldQueries, cuboids, inserts int
	cold := map[int]bool{} // coordinator spans that made a round trip
	for _, s := range spans[firstSpan:] {
		if s.layer == "wire" && s.parent >= 0 {
			cold[s.parent] = true
		}
	}
	for i := firstSpan; i < len(spans); i++ {
		s := spans[i]
		switch {
		case s.name == "coordinator /skyline" && cold[i]:
			coordSelf += self[i]
			coldQueries++
		case s.name == "shard /shard/cuboid":
			shardCuboid += s.end - s.start
			cuboids++
		case s.name == "shard /insert":
			insert += s.end - s.start
			inserts++
		}
	}
	reads := float64(dr.reads)
	m.add("cluster.coord_self_ms", millis(coordSelf)/float64(max(coldQueries, 1)))
	m.add("cluster.shard_cuboid_ms", millis(shardCuboid)/float64(max(cuboids, 1)))
	m.add("server.insert_ms", millis(insert)/float64(max(inserts, 1)))
	m.add("cluster.round_trips_per_query", trips/reads)
	m.add("cluster.bytes_per_query", bytes/reads)
	m.add("cluster.candidates_per_query", float64(dr.candidates)/reads)
	m.add("cluster.kept_per_query", float64(dr.kept)/reads)
	for _, layer := range []string{"coordinator", "shard"} {
		hits := counter(c.reg, "skycube_cache_hits_total", "layer", layer)
		misses := counter(c.reg, "skycube_cache_misses_total", "layer", layer)
		m.add("rcache.hit_frac_"+layer, hits/max(hits+misses, 1))
	}
}

// checkAgainstSingleNode replays the completed writes, in the order they
// completed, into a single in-memory node over the same base points, and
// compares each sampled read with that node's skyline at the read's write
// generation. With final set, every subspace is then read once more and
// compared with a one-shot QSkycube build over all the points, which checks
// the single node too.
func (dr *driver) checkAgainstSingleNode(fx *fixture, cfg config, pool *data.Dataset, t *tally, final bool) error {
	w := cfg.w
	node, err := skycube.NewUpdater(fx.srvDS, skycube.Options{Threads: threads})
	if err != nil {
		return fmt.Errorf("oracle node: %w", err)
	}
	defer node.Close()
	global := make([]int32, w.serve.n, w.serve.n+len(dr.order)*writePoints) // the node's id -> the cluster's id
	for i := range global {
		global[i] = int32(i)
	}
	byGen := map[int][]sampledRead{}
	for _, s := range dr.samples {
		byGen[s.gen] = append(byGen[s.gen], s)
	}
	points := map[int32][]float32{}
	for gen := 0; ; gen++ {
		snap := idCube{node.Current(), global}
		for _, s := range byGen[gen] {
			var reply skylineBody
			err := json.Unmarshal(s.body, &reply)
			t.check(err == nil && !reply.Partial && sameIDs(reply.IDs, snap.Skyline(s.delta)),
				"read of subspace %d at write generation %d differs from a single node over the same points (%v)", s.delta, gen, err)
		}
		if gen == len(dr.order) {
			break
		}
		wr := dr.order[gen]
		if len(dr.ids[wr]) != writePoints {
			continue // the write was refused, and counted as failed
		}
		for k, id := range dr.ids[wr] {
			p := pool.Point(wr*writePoints + k)
			if _, err := node.Insert(p); err != nil {
				return fmt.Errorf("oracle node: %w", err)
			}
			global = append(global, id)
			points[id] = p
		}
		node.Flush()
	}

	if !final {
		return nil
	}
	answers := map[skycube.Subspace][]int32{}
	for _, delta := range skycube.AllSubspaces(w.serve.d) {
		path := skylinePath(delta)
		status, body, err := dr.get(path, spanRef{-1, 0})
		var reply skylineBody
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &reply)
		}
		t.check(err == nil && status == http.StatusOK, "final GET %s: status %d, %v", path, status, err)
		answers[delta] = reply.IDs
	}
	wrong, err := wrongAgainstOneShot(cubeFunc(func(delta skycube.Subspace) []int32 { return answers[delta] }),
		global, func(id int32) []float32 {
			if p, ok := points[id]; ok {
				return p
			}
			return fx.srvRaw.Point(int(id))
		}, w.serve.d)
	if err != nil {
		return err
	}
	t.check(wrong == 0, "final cluster answers differ from a one-shot QSkycube build on %d subspaces", wrong)
	return nil
}

type cubeFunc func(delta skycube.Subspace) []int32

func (f cubeFunc) Skyline(delta skycube.Subspace) []int32 { return f(delta) }
