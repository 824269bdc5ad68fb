package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/rcache"
	"skycube/internal/server"
)

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
		server.LogSlow(c.opt.Logger, r, status, dur, c.opt.SlowQuery, rec.TraceID())
	}
}

// serveSkyline answers one /skyline query and returns the HTTP status it
// wrote (for the query metrics, the trace record and the slow-query log).
// counted is false for a request that never became a query: the cluster's
// dimensionality is unknown, or the dims parameter does not parse.
func (c *Coordinator) serveSkyline(w http.ResponseWriter, r *http.Request, rec *obs.ReqRecord, explain bool, start time.Time) (status int, counted bool) {
	// Fast path: a query already answered at this write generation cannot
	// have changed (a shard's served answer moves only at a flush, and a
	// routed flush rolls the generation), so serve the memoized bytes with
	// no fan-out — no hedges, no retries, no breaker traffic, no merge.
	// Explain always bypasses it: its purpose is to observe the real fan-out.
	if c.cache != nil && !explain {
		if e, ok := c.cache.Get(rcache.Key{Epoch: c.writeGen.Load(), Path: r.URL.Path, Variant: r.URL.RawQuery}); ok {
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
		// Read the generation before gathering: a flush landing mid-gather
		// rolls it when it completes, so whatever mix of old and new shard
		// state this query observed is stored under an already-dead key.
		gen := c.writeGen.Load()
		entry, err = c.cache.Fill(rcache.Key{Epoch: gen, Path: r.URL.Path, Variant: r.URL.RawQuery},
			func() (*rcache.Entry, error) {
				return c.computeSkyline(r.Context(), m, dims, delta)
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

// errStaleMap reports that a shard rejected the pinned map's generation: a
// cutover swapped the map mid-query, and the whole query must rerun on the
// current map.
var errStaleMap = errors.New("cluster: shard map generation went stale mid-query")

// computeSkyline runs one scatter-gather-merge on the pinned map and
// returns the encoded response entry, or a partialError/gatewayError for
// degraded outcomes. Runs under the cache's singleflight gate, so
// concurrent identical cold queries share one fan-out.
func (c *Coordinator) computeSkyline(ctx context.Context, m *shardMap, dims []int, delta mask.Mask) (*rcache.Entry, error) {
	rec := obs.RecordFrom(ctx)
	frames, epochs, failed, stale := c.gather(ctx, m, delta)
	if stale {
		return nil, errStaleMap
	}
	if len(failed) == len(m.shards) {
		return nil, &gatewayError{msg: fmt.Sprintf("all %d shards unreachable", len(m.shards))}
	}
	partial := len(failed) > 0
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
	// The ETag hashes the body, not the generation: the generation restarts
	// at 0 with the coordinator, and a client's old If-None-Match must not
	// match a different body.
	h := fnv.New64a()
	_, _ = h.Write(buf.Bytes())
	return rcache.NewEntry(fmt.Sprintf(`"%016x"`, h.Sum64()), buf.Bytes()), nil
}
