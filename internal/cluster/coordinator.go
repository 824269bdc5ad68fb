package cluster

import (
	"bytes"
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/rcache"
	"skycube/internal/server"
)

// ShardSpec names one shard of the cluster: its replica URLs (all serving
// the same partition) and the partition's global-id arithmetic. Leave
// IDBase/IDStride zero to have the coordinator learn them from
// GET /shard/info at Refresh time.
type ShardSpec struct {
	// Name labels the shard in metrics and responses; "" means its index.
	Name string
	// Replicas are base URLs ("http://host:port") of the shard's replicas.
	Replicas []string
	// IDBase/IDStride map the shard's local row r to global id
	// IDBase + r*IDStride.
	IDBase, IDStride int
}

// CoordinatorOptions tune the scatter-gather serving path. The zero value
// uses the Default* constants.
type CoordinatorOptions struct {
	// Timeout bounds each HTTP attempt against a replica.
	Timeout time.Duration
	// HedgeDelay is how long the primary replica may stay silent before a
	// hedge request races a second replica; negative disables hedging.
	HedgeDelay time.Duration
	// MaxAttempts caps tries per shard per request (1 = no retries).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the capped exponential retry backoff
	// (jitter of ±50% is always applied).
	BackoffBase, BackoffMax time.Duration
	// BreakerThreshold consecutive failures open a replica's breaker for
	// BreakerCooldown, during which the replica is skipped outright.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Prune is read by nothing in this package: there is one gather. The
	// field stays only because benchmark/serve.go sets it and benchmark/ is
	// frozen while a PR is measured against it; the benchmark PR that drops
	// the probe's second (prune = true) loop and
	// cluster.cold_gather_pruned_ms removes this field with them.
	Prune bool
	// CacheEntries bounds the coordinator's merged-response cache (LRU);
	// 0 means rcache.DefaultEntries.
	CacheEntries int
	// DisableCache turns merged-response memoization off. With it set every
	// query scatter-gathers; without it a query whose answer cannot have
	// changed — no write was routed through this coordinator since it was
	// cached — is served as pre-encoded bytes with no shard traffic at all.
	// Writes applied directly to shards (bypassing this coordinator) are
	// invisible to the memo; run multi-writer topologies with DisableCache.
	DisableCache bool
	// Metrics, if non-nil, receives skycube_cluster_* families and enables
	// GET /metrics.
	Metrics *obs.Registry
	// Logger, if non-nil, logs one line per proxied failure.
	Logger *log.Logger
	// Client overrides the HTTP client (tests inject one).
	Client *http.Client
	// Requests, if non-nil, enables distributed request tracing: sampled
	// queries mint a trace id, propagate it (as a traceparent header) over
	// every replica attempt, record typed span events into this ring, and
	// two endpoints are mounted — GET /debug/requests (the ring as JSON,
	// in-flight queries included) and GET /trace/query?id=<trace> (the
	// cross-process Chrome trace assembled from this ring plus every
	// contacted shard's ring). Sampled-out queries keep the warm-cache
	// fast path allocation-free.
	Requests *obs.RequestRing
	// SampleEvery admits one in N queries into tracing (0 = trace only
	// requests arriving with a traceparent header or ?explain=1).
	SampleEvery int
	// SlowQuery, when > 0, logs one structured line (with the trace id when
	// sampled) for every /skyline query at least this slow.
	SlowQuery time.Duration
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.Timeout <= 0 {
		o.Timeout = DefaultTimeout
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = DefaultHedgeDelay
	} else if o.HedgeDelay < 0 {
		o.HedgeDelay = 0
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = DefaultMaxAttempts
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// shardMap is one immutable generation of the cluster topology: the shard
// groups, the consistent-hash ring over their labels, and the monotonic
// generation number stamped on every fan-out request. Membership changes
// (join, split, drain) build a NEW map and swap the coordinator's pointer
// atomically; every request pins exactly one map for its whole lifetime, so
// a query is answered entirely on one topology — old or new, never a mix.
type shardMap struct {
	gen    uint64
	shards []*shardGroup
	ring   *ring
}

// labels returns the group names in map order (the ring's label list).
func (m *shardMap) labels() []string {
	out := make([]string, len(m.shards))
	for i, g := range m.shards {
		out[i] = g.name
	}
	return out
}

// find returns the group with the given name, nil if absent.
func (m *shardMap) find(name string) *shardGroup {
	for _, g := range m.shards {
		if g.name == name {
			return g
		}
	}
	return nil
}

// claim is one shard's claim on a global id: the group and the local row
// its scheme maps the id to.
type claim struct {
	g     *shardGroup
	local int32
}

// claimants returns every group whose id scheme claims the global id. After
// a split, a row copied from parent to child is claimed by both (the
// parent's open-ended arithmetic still reaches it) — deletes broadcast to
// all claimants so whichever side still holds the row drops it.
func (m *shardMap) claimants(id int32) []claim {
	var out []claim
	for _, g := range m.shards {
		s := g.scheme.Load()
		if s == nil {
			continue
		}
		if local, ok := s.localOf(id); ok {
			out = append(out, claim{g: g, local: local})
		}
	}
	return out
}

// Coordinator owns the shard map and serves the cluster's public surface:
//
//	GET  /skyline?dims=0,2          exact global skyline (scatter, gather, merge)
//	GET  /info                      cluster topology and per-replica breaker state
//	GET  /healthz                   readiness: every shard has an admitting replica
//	GET  /metrics                   Prometheus exposition (when Metrics is set)
//	POST /insert                    {"points": [[...]]} routed by consistent hash
//	POST /delete                    {"ids": [global ids]} routed by id arithmetic
//	POST /flush                     broadcast: apply buffered batches everywhere
//	GET  /admin/map                 current shard map (generation, groups, schemes)
//	POST /admin/join                add a caught-up replica to a shard group
//	POST /admin/split               cut a pre-bootstrapped child shard over
//	POST /admin/drain               remove a replica from a shard group
//	POST /admin/refresh             re-probe shards, clear repaired divergence
type Coordinator struct {
	// smap is the current topology; handlers pin one map per request.
	smap   atomic.Pointer[shardMap]
	client *fanoutClient
	cm     *obs.ClusterMetrics
	rbm    *obs.RebalanceMetrics
	// km folds the process-wide dominance-kernel counters (the merge filter
	// runs in this process) into the registry at /metrics scrape time.
	km  *obs.KernelMetrics
	opt CoordinatorOptions
	mux *http.ServeMux

	// writeMu gates mutations against membership cutovers: insert, delete
	// and flush hold it shared; a split cutover holds it exclusively while
	// it converges the child and swaps the map, so no write is in flight
	// across the swap (reads are never blocked — a read racing a cutover is
	// answered on whichever map it pinned, or rejected by a shard's
	// stale-generation check and retried on the new one).
	writeMu sync.RWMutex
	// adminMu serialises membership operations with each other.
	adminMu sync.Mutex

	// cache memoizes merged /skyline responses under two key families: the
	// write-generation key ("q|" + query, epoch = writeGen) that lets a
	// repeat query skip the fan-out — hedges, retries, breakers and merge —
	// entirely, and the shard-epoch-vector key ("v|" + query, epoch = FNV
	// of the gathered epochs) that skips the merge and encode when a
	// re-gather proves the shards unchanged. nil when disabled.
	cache   *rcache.Cache
	cacheCM *obs.CacheMetrics
	// writeGen counts mutations routed through this coordinator; it
	// advances when a write finishes (successfully or not), so any response
	// gathered concurrently with the write is cached under an already-dead
	// generation. Shard epochs only advance through writes, which makes
	// generation-keyed reuse exact for single-writer topologies.
	writeGen atomic.Uint64

	// sampler admits queries into the request ring; nil (never sampling)
	// unless SampleEvery is positive.
	sampler *obs.Sampler

	mu   sync.Mutex
	dims int // learned from /shard/info; 0 until known
}

// NewCoordinator assembles a coordinator over the given shard map. Call
// Refresh (or let the first query do it) to learn dims and any id mappings
// left zero in the specs.
func NewCoordinator(specs []ShardSpec, opt CoordinatorOptions) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	opt = opt.withDefaults()
	cm := obs.NewClusterMetrics(opt.Metrics)
	c := &Coordinator{
		cm:  cm,
		km:  obs.NewKernelMetrics(opt.Metrics),
		opt: opt,
		client: &fanoutClient{
			hc:          opt.Client,
			timeout:     opt.Timeout,
			hedgeDelay:  opt.HedgeDelay,
			maxAttempts: opt.MaxAttempts,
			backoffBase: opt.BackoffBase,
			backoffMax:  opt.BackoffMax,
			metrics:     cm,
		},
	}
	c.rbm = obs.NewRebalanceMetrics(opt.Metrics)
	shards := make([]*shardGroup, 0, len(specs))
	for i, spec := range specs {
		if len(spec.Replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		name := spec.Name
		if name == "" {
			name = strconv.Itoa(i)
		}
		g := &shardGroup{name: name}
		if spec.IDStride != 0 {
			g.scheme.Store(newIDScheme(spec.IDBase, spec.IDStride))
		}
		for _, u := range spec.Replicas {
			g.replicas = append(g.replicas, c.newReplica(u))
		}
		shards = append(shards, g)
	}
	m := &shardMap{gen: 1, shards: shards}
	m.ring = newRing(m.labels())
	c.smap.Store(m)
	c.cacheCM = obs.NewCacheMetrics(opt.Metrics, "coordinator")
	if !opt.DisableCache {
		c.cache = rcache.New(opt.CacheEntries, c.cacheCM)
	}
	c.sampler = obs.NewSampler(opt.SampleEvery)
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/skyline", c.handleSkyline)
	c.mux.HandleFunc("/info", c.handleInfo)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/insert", c.handleInsert)
	c.mux.HandleFunc("/delete", c.handleDelete)
	c.mux.HandleFunc("/flush", c.handleFlush)
	c.mux.HandleFunc("/admin/map", c.handleAdminMap)
	c.mux.HandleFunc("/admin/join", c.handleAdminJoin)
	c.mux.HandleFunc("/admin/split", c.handleAdminSplit)
	c.mux.HandleFunc("/admin/drain", c.handleAdminDrain)
	c.mux.HandleFunc("/admin/refresh", c.handleAdminRefresh)
	if opt.Metrics != nil {
		c.mux.HandleFunc("/metrics", c.handleMetrics)
	}
	if opt.Requests != nil {
		c.mux.Handle("/debug/requests", opt.Requests.Handler())
		c.mux.HandleFunc("/trace/query", c.handleTraceQuery)
	}
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// curMap returns the current shard map. Every handler calls this exactly
// once and threads the pinned map through its whole request.
func (c *Coordinator) curMap() *shardMap { return c.smap.Load() }

// newReplica wires one replica endpoint with its circuit breaker.
func (c *Coordinator) newReplica(u string) *replica {
	u = strings.TrimRight(u, "/")
	rep := &replica{url: u}
	rep.brk = newBreaker(c.opt.BreakerThreshold, c.opt.BreakerCooldown,
		func(state int) { c.cm.Breaker(u, state) })
	return rep
}

// Refresh queries each shard's /shard/info (through the full retry/hedge
// machinery) and fills in dims and any id schemes the specs left zero.
// Unreachable shards are tolerated — a dead shard must not block queries
// that can still answer partially — but a dimensionality conflict between
// reachable shards is an error, and so is learning dims from no shard at
// all.
//
// Refresh is also the divergence repair path: for a group whose write-all
// divergence flag is latched, it additionally fetches /shard/info from
// EVERY replica directly; if all are reachable and agree on (epoch, live)
// — e.g. after an operator rebuilt the lagging replica through a rebalance
// bootstrap — the flag clears and /healthz leaves "degraded".
func (c *Coordinator) Refresh(ctx context.Context) error {
	m := c.curMap()
	var firstErr error
	for _, g := range m.shards {
		body, err := c.client.get(ctx, g, "/shard/info", m.gen)
		if staleMapGen(err) {
			// A shard remembers a higher generation than this (likely
			// restarted) coordinator: adopt it and re-ask on the number the
			// shards accept.
			c.adoptMapGen(staleGenOf(err))
			m = c.curMap()
			body, err = c.client.get(ctx, g, "/shard/info", m.gen)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %s info: %w", g.name, err)
			}
			continue
		}
		var info shardInfo
		if err := json.Unmarshal(body, &info); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %s info: %w", g.name, err)
			}
			continue
		}
		c.mu.Lock()
		if c.dims == 0 {
			c.dims = info.Dims
		} else if c.dims != info.Dims {
			c.mu.Unlock()
			return fmt.Errorf("cluster: shard %s has %d dims, cluster has %d", g.name, info.Dims, c.dims)
		}
		c.mu.Unlock()
		if g.scheme.Load() == nil {
			if scheme, err := schemeFromShardInfo(info); err == nil {
				g.scheme.Store(scheme)
			} else if firstErr == nil {
				firstErr = fmt.Errorf("cluster: shard %s id scheme: %w", g.name, err)
			}
		}
		if g.diverged.Load() && c.replicasAgree(ctx, g) {
			g.diverged.Store(false)
		}
	}
	c.mu.Lock()
	learned := c.dims != 0
	c.mu.Unlock()
	if !learned {
		if firstErr != nil {
			return firstErr
		}
		return fmt.Errorf("cluster: no shard reported its dimensionality")
	}
	return nil
}

// schemeFromShardInfo adopts the scheme a shard reports: the full segment
// list when present, the base/stride pair otherwise.
func schemeFromShardInfo(info shardInfo) (*idScheme, error) {
	if len(info.IDSegments) > 0 {
		return schemeFromSegments(info.IDSegments)
	}
	if info.IDStride <= 0 {
		return nil, fmt.Errorf("shard reported stride %d", info.IDStride)
	}
	return newIDScheme(info.IDBase, info.IDStride), nil
}

// replicasAgree fetches /shard/info from every replica of the group
// directly (no hedging — the point is to observe each replica itself) and
// reports whether all are reachable and agree on (epoch, live). Write-all
// replicas apply identical batches in order, so agreement on the frontier
// means the replica set has re-converged.
func (c *Coordinator) replicasAgree(ctx context.Context, g *shardGroup) bool {
	type frontier struct {
		epoch uint64
		live  int
		err   error
	}
	fs := make([]frontier, len(g.replicas))
	var wg sync.WaitGroup
	for i, rep := range g.replicas {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			body, err := c.client.do(ctx, http.MethodGet, url+"/shard/info", nil, "", 0)
			if err != nil {
				fs[i].err = err
				return
			}
			var info shardInfo
			if err := json.Unmarshal(body, &info); err != nil {
				fs[i].err = err
				return
			}
			fs[i].epoch, fs[i].live = info.Epoch, info.Live
		}(i, rep.url)
	}
	wg.Wait()
	for i := range fs {
		if fs[i].err != nil || fs[i].epoch != fs[0].epoch || fs[i].live != fs[0].live {
			return false
		}
	}
	return len(fs) > 0
}

// dimsOrRefresh returns the cluster dimensionality, refreshing lazily.
func (c *Coordinator) dimsOrRefresh(ctx context.Context) (int, error) {
	c.mu.Lock()
	d := c.dims
	c.mu.Unlock()
	if d != 0 {
		return d, nil
	}
	if err := c.Refresh(ctx); err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dims, nil
}

// shardReply is one shard's answer to a cuboid request: the decoded frame or
// why there is none, plus what the fan-out metrics and the trace record of it.
type shardReply struct {
	frame *cuboidFrame
	err   error
	began time.Duration // offset within the request's trace record
	wall  time.Duration
}

// fetchFrame fetches one shard's cuboid and decodes it. A reply that does not
// decode is a failed reply like any other — labelled, never merged.
func (c *Coordinator) fetchFrame(ctx context.Context, g *shardGroup, path string, gen uint64, delta mask.Mask) shardReply {
	r := shardReply{began: obs.RecordFrom(ctx).Since()}
	start := time.Now()
	body, err := c.client.get(ctx, g, path, gen)
	if err == nil {
		r.frame, err = decodeCuboidFrame(body, delta)
	}
	r.err, r.wall = err, time.Since(start)
	return r
}

// reportReply accounts for a reply the gather acts on: fan-out histogram and
// failure counter, a log line with a failure's reason, the shard_result event.
func (c *Coordinator) reportReply(rec *obs.ReqRecord, g *shardGroup, r shardReply) {
	c.cm.Fanout(g.name, r.wall, r.err == nil)
	ev := obs.Event{Kind: obs.EvShardResult, Shard: g.name, Start: r.began, Dur: r.wall}
	if r.err != nil {
		if c.opt.Logger != nil {
			c.opt.Logger.Printf("cluster: shard %s: %v", g.name, r.err)
		}
		ev.Err = r.err.Error()
	} else {
		ev.N, ev.Bytes, ev.Epoch = int64(len(r.frame.ids)), int64(r.frame.wire), r.frame.epoch
	}
	rec.Event(ev)
}

// gather scatters the cuboid request to every shard of the pinned map and
// returns the decoded frames, indexed like m.shards. Failed shards (all
// replicas exhausted, or an undecodable reply) are reported, not fatal. stale
// reports that a shard rejected the map generation: the caller must retry the
// whole query on the current map rather than serve a mix.
func (c *Coordinator) gather(ctx context.Context, m *shardMap, delta mask.Mask) (_ []*cuboidFrame, _ map[string]uint64, failed []string, stale bool) {
	path := fmt.Sprintf("/shard/cuboid?subspace=%d", uint32(delta))
	rec := obs.RecordFrom(ctx)
	replies := make([]shardReply, len(m.shards))
	var wg sync.WaitGroup
	for i, g := range m.shards {
		wg.Add(1)
		go func(i int, g *shardGroup) {
			defer wg.Done()
			replies[i] = c.fetchFrame(ctx, g, path, m.gen, delta)
			c.reportReply(rec, g, replies[i])
		}(i, g)
	}
	wg.Wait()
	frames := make([]*cuboidFrame, len(m.shards))
	epochs := make(map[string]uint64, len(m.shards))
	for i, g := range m.shards {
		if err := replies[i].err; err != nil {
			if staleMapGen(err) {
				stale = true
				c.adoptMapGen(staleGenOf(err))
			}
			failed = append(failed, g.name)
			continue
		}
		frames[i], epochs[g.name] = replies[i].frame, replies[i].frame.epoch
	}
	sort.Strings(failed)
	return frames, epochs, failed, stale
}

// epochVectorHash folds the gathered per-shard epochs — in the fixed shard
// order, seeded with the map generation — into one 64-bit key: FNV-1a with
// a splitmix64 finalizer (see hashBytes). Two gathers with identical epoch
// vectors under the same map are byte-identical responses, so the hash
// memoizes the merge across unrelated writes; seeding with the generation
// keeps vectors from different topologies (same epochs, different shard
// sets) apart.
func (c *Coordinator) epochVectorHash(m *shardMap, epochs map[string]uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for b := 0; b < 8; b++ {
		h ^= (m.gen >> (8 * b)) & 0xff
		h *= prime64
	}
	for _, g := range m.shards {
		e := epochs[g.name]
		for b := 0; b < 8; b++ {
			h ^= (e >> (8 * b)) & 0xff
			h *= prime64
		}
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// skylineResponse is the coordinator's /skyline payload. Partial is set —
// and the HTTP status is 206 — when a shard had no live replica: the ids
// are then a correct skyline of the reachable partitions only, never a
// silently wrong global answer. Candidates counts the shard-local skyline
// members the reachable shards shipped.
type skylineResponse struct {
	Dims         []int             `json:"dims"`
	Subspace     uint32            `json:"subspace"`
	Count        int               `json:"count"`
	IDs          []int32           `json:"ids"`
	Candidates   int               `json:"candidates"`
	Partial      bool              `json:"partial"`
	FailedShards []string          `json:"failed_shards,omitempty"`
	Epochs       map[string]uint64 `json:"epochs,omitempty"`
}

// Key-variant prefixes namespace the coordinator cache's two key families
// (the Epoch field carries a write generation in one and an epoch-vector
// hash in the other, and the two value spaces must never collide).
const (
	genKeyPrefix   = "q|"
	epochKeyPrefix = "v|"
)

// partialError carries an explicitly partial (206) response out of the
// cache fill: partial answers are served but never memoized, and marked
// no-store so intermediaries don't cache a degraded answer either.
type partialError struct{ body []byte }

func (e *partialError) Error() string { return "cluster: partial response" }

// gatewayError is the all-shards-unreachable outcome (HTTP 502).
type gatewayError struct{ msg string }

func (e *gatewayError) Error() string { return e.msg }

func (c *Coordinator) handleSkyline(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	start := time.Now()
	// Tracing decision up front. The common untraced request pays a raw-query
	// Contains, a header lookup and a nil-sampler test — no parsing, no
	// allocation — so the warm-cache fast path below stays allocation-free.
	// ?explain=1 forces a record: the explain response is built from it.
	explain := strings.Contains(r.URL.RawQuery, "explain=") &&
		r.URL.Query().Get("explain") == "1"
	var rec *obs.ReqRecord
	if c.opt.Requests != nil || explain {
		if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
			if trace, _, ok := obs.ParseTraceparent(tp); ok {
				rec = obs.NewRecord("coordinator", trace, r.Method, r.URL.Path, r.URL.RawQuery)
			}
		}
		if rec == nil && (explain || c.sampler.Sample()) {
			rec = obs.NewRecord("coordinator", obs.NewTraceID(), r.Method, r.URL.Path, r.URL.RawQuery)
		}
		if rec != nil {
			c.opt.Requests.Add(rec)
			r = r.WithContext(obs.WithRecord(r.Context(), rec))
		}
	}
	status, counted := c.serveSkyline(w, r, rec, explain, start)
	if counted {
		c.cm.QueryTraced(time.Since(start), status == http.StatusPartialContent, rec.TraceID())
	}
	rec.Finish(status)
	if dur := time.Since(start); c.opt.SlowQuery > 0 && dur >= c.opt.SlowQuery {
		c.logSlow(r, status, dur, rec.TraceID())
	}
}

// serveSkyline answers one /skyline query and returns the HTTP status it
// wrote (for the query metrics, the trace record and the slow-query log).
// counted is false for a request that never became a query: the cluster's
// dimensionality is unknown, or the dims parameter does not parse.
func (c *Coordinator) serveSkyline(w http.ResponseWriter, r *http.Request, rec *obs.ReqRecord, explain bool, start time.Time) (status int, counted bool) {
	// Fast path: a query already answered at this write generation cannot
	// have changed (shard epochs advance only through routed writes), so
	// serve the memoized bytes with no fan-out — no hedges, no retries, no
	// breaker traffic, no merge. Explain always bypasses it: its purpose is
	// to observe the real fan-out.
	if c.cache != nil && !explain {
		if e, ok := c.cache.Get(rcache.Key{Epoch: c.writeGen.Load(), Variant: genKeyPrefix + r.URL.RawQuery}); ok {
			rec.Event(obs.Event{Kind: obs.EvCache, Detail: "hit-generation", Start: rec.Since()})
			rcache.Serve(w, r, e, c.cacheCM)
			return http.StatusOK, true
		}
	}
	d, err := c.dimsOrRefresh(r.Context())
	if err != nil {
		http.Error(w, fmt.Sprintf("cluster not ready: %v", err), http.StatusServiceUnavailable)
		return http.StatusServiceUnavailable, false
	}
	dims, delta, errMsg := server.ParseDims(r.URL.Query().Get("dims"), d)
	if errMsg != "" {
		http.Error(w, errMsg, http.StatusBadRequest)
		return http.StatusBadRequest, false
	}
	if explain {
		return c.serveExplain(w, r, rec, dims, delta, start), true
	}
	rec.Event(obs.Event{Kind: obs.EvCache, Detail: "miss", Start: rec.Since()})
	// Pin one shard map per attempt. A shard answering "stale generation"
	// proves a membership cutover swapped the map mid-query; the whole
	// query retries on the new map — shards gathered under different maps
	// are never mixed into one answer.
	var entry *rcache.Entry
	for attempt := 0; ; attempt++ {
		m := c.curMap()
		// Read the generation before gathering: a write landing mid-gather
		// bumps it when it completes, so whatever mix of old and new shard
		// state this query observed is stored under an already-dead key.
		gen := c.writeGen.Load()
		entry, err = c.cache.Fill(rcache.Key{Epoch: gen, Variant: genKeyPrefix + r.URL.RawQuery},
			func() (*rcache.Entry, error) {
				return c.computeSkyline(r.Context(), m, r.URL.RawQuery, dims, delta)
			})
		if errors.Is(err, errStaleMap) && attempt < 2 {
			rec.Event(obs.Event{Kind: obs.EvRetry, Detail: "stale-map", Start: rec.Since()})
			continue
		}
		break
	}
	if err != nil {
		var pe *partialError
		var ge *gatewayError
		switch {
		case errors.As(err, &pe):
			w.Header().Set("Cache-Control", "no-store")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusPartialContent)
			_, _ = w.Write(pe.body)
			return http.StatusPartialContent, true
		case errors.As(err, &ge):
			http.Error(w, ge.msg, http.StatusBadGateway)
			return http.StatusBadGateway, true
		case errors.Is(err, errStaleMap):
			http.Error(w, "shard map changed repeatedly during the query; retry",
				http.StatusServiceUnavailable)
			return http.StatusServiceUnavailable, true
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return http.StatusInternalServerError, true
		}
	}
	rcache.Serve(w, r, entry, c.cacheCM)
	return http.StatusOK, true
}

// logSlow emits the coordinator's slow-query log line.
func (c *Coordinator) logSlow(r *http.Request, status int, dur time.Duration, traceID string) {
	if traceID == "" {
		traceID = "-"
	}
	line := fmt.Sprintf("slow-query method=%s path=%s query=%q status=%d dur=%s threshold=%s trace=%s",
		r.Method, r.URL.Path, r.URL.RawQuery, status, dur, c.opt.SlowQuery, traceID)
	if c.opt.Logger != nil {
		c.opt.Logger.Print(line)
		return
	}
	log.Print(line)
}

// errStaleMap reports that a shard rejected the pinned map's generation: a
// cutover swapped the map mid-query, and the whole query must rerun on the
// current map.
var errStaleMap = errors.New("cluster: shard map generation went stale mid-query")

// computeSkyline runs one scatter-gather-merge on the pinned map and
// returns the encoded response entry, or a partialError/gatewayError for
// degraded outcomes. Runs under the cache's singleflight gate, so
// concurrent identical cold queries share one fan-out.
func (c *Coordinator) computeSkyline(ctx context.Context, m *shardMap, rawQuery string, dims []int, delta mask.Mask) (*rcache.Entry, error) {
	rec := obs.RecordFrom(ctx)
	frames, epochs, failed, stale := c.gather(ctx, m, delta)
	if stale {
		return nil, errStaleMap
	}
	if len(failed) == len(m.shards) {
		return nil, &gatewayError{msg: fmt.Sprintf("all %d shards unreachable", len(m.shards))}
	}
	partial := len(failed) > 0
	var evKey rcache.Key
	if !partial {
		// Complete answer: the shard-epoch vector fully determines the
		// response bytes. If an identical vector was merged before — under
		// any write generation — reuse it and skip the merge and encode.
		evKey = rcache.Key{Epoch: c.epochVectorHash(m, epochs), Variant: epochKeyPrefix + rawQuery}
		if e, ok := c.cache.Get(evKey); ok {
			rec.Event(obs.Event{Kind: obs.EvCache, Detail: "hit-epoch-vector", Start: rec.Since()})
			return e, nil
		}
	}
	mergeStart := rec.Since()
	ids, st := mergeFrames(frames, delta)
	c.cm.Merge(st.cands, len(ids))
	rec.Event(obs.Event{Kind: obs.EvMerge, Start: mergeStart,
		Dur: rec.Since() - mergeStart, N: int64(len(ids)), Detail: st.String()})
	resp := skylineResponse{
		Dims:         dims,
		Subspace:     uint32(delta),
		Count:        len(ids),
		IDs:          ids,
		Candidates:   st.cands,
		Partial:      partial,
		FailedShards: failed,
		Epochs:       epochs,
	}
	encStart := rec.Since()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	rec.Event(obs.Event{Kind: obs.EvEncode, Start: encStart,
		Dur: rec.Since() - encStart, Bytes: int64(buf.Len())})
	if partial {
		return nil, &partialError{body: buf.Bytes()}
	}
	e := rcache.NewEntry(fmt.Sprintf(`"v%x-s%d"`, evKey.Epoch, uint32(delta)), buf.Bytes())
	c.cache.Put(evKey, e)
	return e, nil
}

// infoResponse is the coordinator's /info payload.
type infoResponse struct {
	Shards []shardStatus `json:"shards"`
	Dims   int           `json:"dims"`
	MapGen uint64        `json:"map_gen"`
}

type shardStatus struct {
	Name       string          `json:"name"`
	IDBase     int             `json:"id_base"`
	IDStride   int             `json:"id_stride"`
	IDSegments []IDSegment     `json:"id_segments,omitempty"`
	Replicas   []replicaStatus `json:"replicas"`
	// WritesDiverged reports that a write-all POST partially succeeded on
	// this shard: its replicas are no longer byte-identical and need a
	// rebuild (Refresh clears it once every replica agrees again).
	WritesDiverged bool `json:"writes_diverged,omitempty"`
}

type replicaStatus struct {
	URL     string `json:"url"`
	Breaker string `json:"breaker"` // closed | open | half-open
}

func breakerName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

func (c *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	c.mu.Lock()
	d := c.dims
	c.mu.Unlock()
	m := c.curMap()
	resp := infoResponse{Dims: d, MapGen: m.gen}
	for _, g := range m.shards {
		base, stride := g.idMap()
		st := shardStatus{Name: g.name, IDBase: base, IDStride: stride, WritesDiverged: g.diverged.Load()}
		if s := g.scheme.Load(); s != nil {
			st.IDSegments = s.segments()
		}
		for _, rep := range g.replicas {
			st.Replicas = append(st.Replicas, replicaStatus{URL: rep.url, Breaker: breakerName(rep.brk.State())})
		}
		resp.Shards = append(resp.Shards, st)
	}
	server.WriteJSON(w, resp)
}

// healthResponse is the coordinator's /healthz payload: ready means every
// shard currently has at least one replica whose breaker is not open.
type healthResponse struct {
	Status     string   `json:"status"`
	Ready      bool     `json:"ready"`
	DownShards []string `json:"down_shards,omitempty"`
	// DivergedShards lists shards whose replicas a partial write-all
	// failure left byte-inconsistent. The cluster still serves (degraded):
	// reads from such a shard may flip-flop depending on which replica
	// answers, so operators should rebuild the listed shards.
	DivergedShards []string `json:"diverged_shards,omitempty"`
	ShardCount     int      `json:"shards"`
	ReplicaGoal    int      `json:"replicas_per_shard"`
	MapGen         uint64   `json:"map_gen"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	m := c.curMap()
	resp := healthResponse{Status: "ok", Ready: true, ShardCount: len(m.shards), MapGen: m.gen}
	for _, g := range m.shards {
		if len(g.replicas) > resp.ReplicaGoal {
			resp.ReplicaGoal = len(g.replicas)
		}
		live := 0
		for _, rep := range g.replicas {
			if rep.brk.State() != breakerOpen {
				live++
			}
		}
		if live == 0 {
			resp.Ready = false
			resp.DownShards = append(resp.DownShards, g.name)
		}
		if g.diverged.Load() {
			resp.DivergedShards = append(resp.DivergedShards, g.name)
		}
	}
	if !resp.Ready {
		resp.Status = "unavailable"
		server.WriteJSONStatus(w, http.StatusServiceUnavailable, resp)
		return
	}
	if len(resp.DivergedShards) > 0 {
		resp.Status = "degraded"
	}
	server.WriteJSON(w, resp)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	server.ServeMetrics(w, r, c.opt.Metrics, c.km)
}

// insertRequest / insertResponse mirror the shard server's protocol, but
// with global ids: the coordinator hashes each point onto the ring, writes
// it to every replica of the owning shard, and maps the shard's local ids
// through the shard's id arithmetic.
type insertRequest struct {
	Points [][]float32 `json:"points"`
	// Batch optionally makes the insert idempotent end-to-end: the
	// coordinator derives per-shard batch ids from it (generating one when
	// absent), and shard replicas replay rather than re-apply a batch id
	// they have already accepted. Point routing is deterministic, so
	// resending the same batch returns the same global ids.
	Batch string `json:"batch,omitempty"`
}

type insertResponse struct {
	IDs    []int32        `json:"ids"`
	Routed map[string]int `json:"routed"` // shard name -> points routed there
}

// shardInsertResponse is the subset of the shard server's /insert payload
// the coordinator needs.
type shardInsertResponse struct {
	IDs []int32 `json:"ids"`
}

// newBatchID returns a fresh idempotency token for one insert request.
func newBatchID() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("b%x", rand.Uint64())
	}
	return hex.EncodeToString(b[:])
}

func (c *Coordinator) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	if _, err := c.dimsOrRefresh(r.Context()); err != nil {
		http.Error(w, fmt.Sprintf("cluster not ready: %v", err), http.StatusServiceUnavailable)
		return
	}
	var req insertRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResponseBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Points) == 0 {
		http.Error(w, `missing points (e.g. {"points": [[1,2,3]]})`, http.StatusBadRequest)
		return
	}
	// Writes hold the gate shared: a split cutover holds it exclusively
	// across its convergence and map swap, so no insert spans the swap.
	c.writeMu.RLock()
	defer c.writeMu.RUnlock()
	// Per-shard batch ids make replica writes idempotent: a retry after a
	// timeout (the first attempt may or may not have been applied) replays
	// the shard's original response instead of inserting twice. Generated
	// once, so a stale-map retry of the whole request replays too.
	batch := req.Batch
	if batch == "" {
		batch = newBatchID()
	}
	for attempt := 0; ; attempt++ {
		status, msg := c.insertOnce(w, r, &req, batch)
		if status == http.StatusConflict && msg == "" && attempt < 2 {
			continue // stale map: retry the whole batch on the current map
		}
		if status != 0 {
			http.Error(w, msg, status)
		}
		return
	}
}

// insertOnce routes one insert batch on the current map. It returns (0, "")
// after writing the success response itself, or a status and message for
// the caller; (StatusConflict, "") is the stale-map outcome the caller
// retries.
func (c *Coordinator) insertOnce(w http.ResponseWriter, r *http.Request, req *insertRequest, batch string) (int, string) {
	m := c.curMap()
	// Range-partitioned clusters (stride-1 id blocks) cannot accept
	// inserts: shard s's next local row n_s maps to global id
	// base_s + n_s, which is exactly shard s+1's base — two distinct
	// points would share a global id, the merge would silently drop one,
	// and deletes would route to the wrong shard. Range mode is read-only;
	// refuse rather than corrupt. (Sealed split blocks live in their own
	// reserved id region and do not trip this.)
	if len(m.shards) > 1 {
		for _, g := range m.shards {
			if s := g.scheme.Load(); s != nil && s.rangePartitioned() {
				return http.StatusConflict, fmt.Sprintf(
					"shard %s is range-partitioned (id stride 1): inserted ids would collide with the next shard's id block; range-partitioned clusters are read-only (use round-robin partitions for writable clusters)",
					g.name)
			}
		}
	}
	// Invalidate the read memo when the write finishes — success or not,
	// since a failed write-all may have partially applied. Bumping at
	// completion (not start) matters: a read that gathered pre-write shard
	// state must not be cached under the post-write generation.
	defer c.writeGen.Add(1)
	// Group the batch per owning shard, remembering request order.
	perShard := make(map[int][]int, len(m.shards)) // shard index -> request indices
	for i, p := range req.Points {
		s := m.ring.owner(hashPoint(p))
		perShard[s] = append(perShard[s], i)
	}
	resp := insertResponse{IDs: make([]int32, len(req.Points)), Routed: map[string]int{}}
	for s, idxs := range perShard {
		g := m.shards[s]
		scheme := g.scheme.Load()
		if scheme == nil {
			// The shard never reported its id scheme (spec left it zero and
			// /shard/info was unreachable): the global ids would be garbage,
			// so refuse until a Refresh learns the mapping.
			return http.StatusServiceUnavailable,
				fmt.Sprintf("shard %s id mapping unknown (unreachable at refresh?)", g.name)
		}
		pts := make([][]float32, len(idxs))
		for k, i := range idxs {
			pts[k] = req.Points[i]
		}
		body, err := json.Marshal(insertRequest{Points: pts, Batch: batch + "/" + g.name})
		if err != nil {
			return http.StatusInternalServerError, err.Error()
		}
		// Write-all replication: every replica must accept the batch so the
		// replica set stays byte-identical (and agrees on assigned ids).
		bodies, err := c.client.post(r.Context(), g, "/insert", body, m.gen)
		if err != nil {
			if staleMapGen(err) {
				c.adoptMapGen(staleGenOf(err))
				if len(resp.Routed) == 0 {
					// Nothing applied yet: rerouting the whole batch on the
					// new map is safe.
					return http.StatusConflict, ""
				}
				// Part of the batch landed under the old map; rerouting the
				// rest could place a point on a different shard than a
				// replayed retry of the applied part. Surface the conflict
				// instead of splitting the batch across topologies.
				return http.StatusBadGateway,
					"shard map changed mid-insert after part of the batch applied"
			}
			status := http.StatusBadGateway
			if isCallerError(err) {
				status = http.StatusBadRequest
			}
			return status, fmt.Sprintf("insert failed on shard %s: %v", g.name, err)
		}
		var localIDs []int32
		for ri, b := range bodies {
			var sr shardInsertResponse
			if err := json.Unmarshal(b, &sr); err != nil || len(sr.IDs) != len(idxs) {
				return http.StatusBadGateway,
					fmt.Sprintf("shard %s replica returned a malformed insert response", g.name)
			}
			if ri == 0 {
				localIDs = sr.IDs
				continue
			}
			for k := range sr.IDs {
				if sr.IDs[k] != localIDs[k] {
					// Replicas no longer agree on the id sequence — refuse to
					// report ids that would be wrong on half the replica set.
					return http.StatusBadGateway,
						fmt.Sprintf("shard %s replicas diverged on assigned ids", g.name)
				}
			}
		}
		for k, i := range idxs {
			resp.IDs[i] = scheme.global(localIDs[k])
		}
		resp.Routed[g.name] += len(idxs)
	}
	server.WriteJSON(w, resp)
	return 0, ""
}

// deleteRequest / deleteResponse carry global ids; each id routes to its
// owning shard by the id arithmetic (with the round-robin scheme, id mod K).
type deleteRequest struct {
	IDs []int32 `json:"ids"`
}

type deleteResponse struct {
	Deleted int            `json:"deleted"`
	Routed  map[string]int `json:"routed"`
}

func (c *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	if _, err := c.dimsOrRefresh(r.Context()); err != nil {
		http.Error(w, fmt.Sprintf("cluster not ready: %v", err), http.StatusServiceUnavailable)
		return
	}
	var req deleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxResponseBytes)).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.IDs) == 0 {
		http.Error(w, `missing ids (e.g. {"ids": [17]})`, http.StatusBadRequest)
		return
	}
	// Writes hold the gate shared (see handleInsert). Deletes are
	// idempotent at the system level — a victim already gone answers 4xx —
	// so a stale-map retry can always rerun the whole request.
	c.writeMu.RLock()
	defer c.writeMu.RUnlock()
	for attempt := 0; ; attempt++ {
		status, msg := c.deleteOnce(w, r, &req)
		if status == http.StatusConflict && msg == "" && attempt < 2 {
			continue // stale map: retry on the current map
		}
		if status != 0 {
			http.Error(w, msg, status)
		}
		return
	}
}

// deleteOnce routes one delete batch on the current map, broadcasting each
// id to EVERY group whose scheme claims it. After a split, rows copied from
// parent to child are claimed by both until the ownership prune completes —
// and the parent's open arithmetic claims the child's copied rows forever —
// so a delete succeeds if at least one claimant dropped the row; claimants
// that no longer hold it answer 4xx, which is the goal state, not an error.
// Any 5xx (a claimant that might still hold the row but could not be
// written) fails the request. Returns like insertOnce.
func (c *Coordinator) deleteOnce(w http.ResponseWriter, r *http.Request, req *deleteRequest) (int, string) {
	m := c.curMap()
	// Bump the read-memo generation when the delete finishes (see
	// handleInsert for why completion, not start).
	defer c.writeGen.Add(1)

	// Bucket ids by their full claimant signature: ids claimed by exactly
	// one group batch per group as before; ids claimed by several groups go
	// one-by-one so a per-id miss on one claimant cannot fail unrelated ids
	// batched with it.
	type bucket struct {
		g      *shardGroup
		locals []int32
		ids    []int32 // global ids, for accounting
	}
	singles := make(map[*shardGroup]*bucket)
	type multi struct {
		id     int32
		claims []claim
	}
	var multis []multi
	for _, id := range req.IDs {
		claims := m.claimants(id)
		switch len(claims) {
		case 0:
			return http.StatusBadRequest, fmt.Sprintf("id %d maps to no shard", id)
		case 1:
			b := singles[claims[0].g]
			if b == nil {
				b = &bucket{g: claims[0].g}
				singles[claims[0].g] = b
			}
			b.locals = append(b.locals, claims[0].local)
			b.ids = append(b.ids, id)
		default:
			multis = append(multis, multi{id: id, claims: claims})
		}
	}

	resp := deleteResponse{Routed: map[string]int{}}
	for _, b := range singles {
		body, err := json.Marshal(deleteRequest{IDs: b.locals})
		if err != nil {
			return http.StatusInternalServerError, err.Error()
		}
		if _, err := c.client.post(r.Context(), b.g, "/delete", body, m.gen); err != nil {
			if staleMapGen(err) {
				c.adoptMapGen(staleGenOf(err))
				return http.StatusConflict, ""
			}
			status := http.StatusBadGateway
			if isCallerError(err) {
				status = http.StatusBadRequest
			}
			return status, fmt.Sprintf("delete failed on shard %s: %v", b.g.name, err)
		}
		resp.Deleted += len(b.locals)
		resp.Routed[b.g.name] += len(b.locals)
	}
	for _, mu := range multis {
		dropped := 0
		for _, cl := range mu.claims {
			body, err := json.Marshal(deleteRequest{IDs: []int32{cl.local}})
			if err != nil {
				return http.StatusInternalServerError, err.Error()
			}
			if _, err := c.client.post(r.Context(), cl.g, "/delete", body, m.gen); err != nil {
				if staleMapGen(err) {
					c.adoptMapGen(staleGenOf(err))
					return http.StatusConflict, ""
				}
				if isCallerError(err) {
					continue // this claimant no longer holds the row
				}
				return http.StatusBadGateway,
					fmt.Sprintf("delete %d failed on shard %s: %v", mu.id, cl.g.name, err)
			}
			dropped++
			resp.Routed[cl.g.name]++
		}
		if dropped == 0 {
			return http.StatusBadRequest, fmt.Sprintf("id %d is not live on any claiming shard", mu.id)
		}
		resp.Deleted++
	}
	server.WriteJSON(w, resp)
	return 0, ""
}

// flushResponse reports the post-flush epoch per shard.
type flushResponse struct {
	Epochs map[string]uint64 `json:"epochs"`
}

// shardEpochResponse is the subset of the shard's /flush payload used here.
type shardEpochResponse struct {
	Epoch uint64 `json:"epoch"`
}

func (c *Coordinator) handleFlush(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	// Flush is a write: it holds the gate shared and pins one map.
	c.writeMu.RLock()
	defer c.writeMu.RUnlock()
	m := c.curMap()
	// Flush advances shard epochs, so the read memo must roll over with it.
	defer c.writeGen.Add(1)
	resp := flushResponse{Epochs: map[string]uint64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, len(m.shards))
	for _, g := range m.shards {
		wg.Add(1)
		go func(g *shardGroup) {
			defer wg.Done()
			bodies, err := c.client.post(r.Context(), g, "/flush", []byte("{}"), m.gen)
			if err != nil {
				errCh <- fmt.Errorf("flush failed on shard %s: %w", g.name, err)
				return
			}
			var er shardEpochResponse
			if err := json.Unmarshal(bodies[0], &er); err != nil {
				errCh <- fmt.Errorf("shard %s flush response: %w", g.name, err)
				return
			}
			mu.Lock()
			resp.Epochs[g.name] = er.Epoch
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	server.WriteJSON(w, resp)
}
