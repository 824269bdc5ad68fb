package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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
// is a working coordinator.
type CoordinatorOptions struct {
	// Timeout bounds each HTTP attempt against a replica (0 means
	// DefaultTimeout).
	Timeout time.Duration
	// Prune is read by nothing in this package: there is one gather. The
	// field stays only because benchmark/serve.go sets it and benchmark/ is
	// frozen while a PR is measured against it; the benchmark PR that drops
	// the probe's second (prune = true) loop and
	// cluster.cold_gather_pruned_ms removes this field with them.
	Prune bool
	// DisableCache turns merged-response memoization off. With it set every
	// query scatter-gathers; without it a query whose answer cannot have
	// changed — no flush was routed through this coordinator since it was
	// cached — is served as pre-encoded bytes with no shard traffic at all.
	// Inserts and deletes stay buffered on the shards until a flush, so
	// they never invalidate it, and a routed flush invalidates only the
	// subspaces it changed. A flush applied directly to a shard (bypassing
	// this coordinator) stays invisible until the next routed flush, which
	// detects the gap. Run topologies where anything else flushes the
	// shards with DisableCache.
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

	// cache memoizes merged /skyline responses under (generation, path, raw
	// query), so a repeat query skips the fan-out — hedges, retries,
	// breakers and merge — entirely. nil when disabled.
	cache   *rcache.Cache
	cacheCM *obs.CacheMetrics
	// A read of subspace δ is cached under δ's generation (readGen): the later
	// of δ's last roll, rolled[δ−1], and the last roll of every subspace,
	// allAt. writeGen is the last generation a roll took; each takes the next.
	// A routed /flush rolls the subspaces its shards report it changed, or all
	// of them when it cannot prove that set (rollFlush); a map swap and an
	// ownership prune roll all. A routed insert or delete only buffers on the
	// shards, invisible until the next flush, so it rolls nothing. A roll
	// completes before the write's reply, and a miss reads its generation
	// before it gathers, so a response gathered concurrently with a flush that
	// changed its subspace is cached under an already-dead generation. This
	// makes reuse exact while this coordinator is the only one flushing the
	// shards; a flush posted to a shard directly is caught by the next routed
	// one, whose epochs no longer follow on (an epoch gap rolls all).
	writeGen atomic.Uint64
	allAt    atomic.Uint64
	rolled   atomic.Pointer[[]atomic.Uint64] // nil until the first subspace roll
	// rollMu serialises rolls, so that generations only grow, and guards seen:
	// per shard group, the epoch up to which every transition of the group
	// has been rolled.
	rollMu sync.Mutex
	seen   map[string]uint64

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
		cm:   cm,
		km:   obs.NewKernelMetrics(opt.Metrics),
		opt:  opt,
		seen: make(map[string]uint64),
		client: &fanoutClient{
			hc:          opt.Client,
			timeout:     opt.Timeout,
			hedgeDelay:  defaultHedgeDelay,
			backoffBase: defaultBackoffBase,
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
		c.cache = rcache.New(c.cacheCM)
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
	rep.brk = newBreaker(breakerThreshold, breakerCooldown,
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
			if scheme, err := schemeFromSegments(info.IDSegments); err == nil {
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
			fs[i].epoch, fs[i].live, fs[i].err = c.replicaFrontier(ctx, url)
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

// replicaFrontier reads one replica's (epoch, live) from its /shard/info
// directly — no hedging, no fallback: the point is to observe this exact
// replica.
func (c *Coordinator) replicaFrontier(ctx context.Context, url string) (uint64, int, error) {
	body, err := c.client.do(ctx, http.MethodGet, trimURL(url)+"/shard/info", nil, "", 0)
	if err != nil {
		return 0, 0, err
	}
	var info shardInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, 0, err
	}
	return info.Epoch, info.Live, nil
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

// infoResponse is the coordinator's /info payload.
type infoResponse struct {
	Shards []shardStatus `json:"shards"`
	Dims   int           `json:"dims"`
	MapGen uint64        `json:"map_gen"`
}

type shardStatus struct {
	Name       string          `json:"name"`
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
		st := shardStatus{Name: g.name, WritesDiverged: g.diverged.Load()}
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
