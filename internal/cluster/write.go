package cluster

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"skycube/internal/bitset"
	"skycube/internal/delta"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/server"
)

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
	if !server.DecodeBody(w, r, &req) {
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
	// Positional (angular) clusters cannot accept inserts: shard s's next
	// local row n_s maps to global id base_s + n_s, which is exactly shard
	// s+1's base — two distinct points would share a global id, the merge
	// would silently drop one, and deletes would route to the wrong shard.
	// Refuse rather than corrupt once two stride-1 shards start at
	// different bases. A one-shard cluster and its split children share one
	// base (a child copies its parent's first segment and mints from a
	// sealed block), so they keep taking inserts.
	var positional *idScheme
	for _, g := range m.shards {
		s := g.scheme.Load()
		if s == nil || !s.positional() {
			continue
		}
		if positional != nil && positional.segs[0].Base != s.segs[0].Base {
			return http.StatusConflict, fmt.Sprintf(
				"shard %s is positionally partitioned (id stride 1 from base %d, another shard's from base %d): inserted ids would collide with the next shard's id block; positional (angular) clusters are read-only (use round-robin partitions for writable clusters)",
				g.name, s.segs[0].Base, positional.segs[0].Base)
		}
		positional = s
	}
	// Group the batch per owning shard, remembering request order.
	perShard := make(map[int][]int, len(m.shards)) // shard index -> request indices
	for i, p := range req.Points {
		s := m.ring.owner(hashPoint(p))
		perShard[s] = append(perShard[s], i)
	}
	// Encode every shard's slice before any shard applies one: a batch id
	// some shard could not remember, an unknown id scheme, or a slice over
	// the shards' body cap refuses the whole batch while nothing is written.
	// Re-encoding can outgrow the client's text ("1e20" becomes 21 digits),
	// so the decoded request fitting the cap proves nothing about a slice.
	type shardBatch struct {
		g      *shardGroup
		scheme *idScheme
		idxs   []int
		body   []byte
	}
	batches := make([]shardBatch, 0, len(perShard))
	for s, idxs := range perShard {
		g := m.shards[s]
		id := batch + "/" + g.name
		if len(id) > delta.MaxBatchID {
			return http.StatusBadRequest, fmt.Sprintf("batch id of %d bytes is too long: shard %s's batch id would be %d bytes (at most %d)",
				len(batch), g.name, len(id), delta.MaxBatchID)
		}
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
		body, err := json.Marshal(insertRequest{Points: pts, Batch: id})
		if err != nil {
			return http.StatusInternalServerError, err.Error()
		}
		if len(body) > server.MaxBodyBytes {
			return http.StatusRequestEntityTooLarge, fmt.Sprintf("shard %s's part of the batch encodes to %d bytes, over the %d-byte mutation body cap: split the batch",
				g.name, len(body), server.MaxBodyBytes)
		}
		batches = append(batches, shardBatch{g: g, scheme: scheme, idxs: idxs, body: body})
	}
	resp := insertResponse{IDs: make([]int32, len(req.Points)), Routed: map[string]int{}}
	for _, sb := range batches {
		g, idxs := sb.g, sb.idxs
		// Write-all replication: every replica must accept the batch so the
		// replica set stays byte-identical (and agrees on assigned ids).
		bodies, err := c.client.post(r.Context(), g, "/insert", sb.body, m.gen)
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
			resp.IDs[i] = sb.scheme.global(localIDs[k])
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
	if !server.DecodeBody(w, r, &req) {
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

// shardEpochResponse is the subset of the shard's /flush payload used here:
// the epoch it serves and the transition that made it — the epoch before it
// and the subspaces whose skyline changed, as a hex number over bits δ−1.
type shardEpochResponse struct {
	Epoch   uint64 `json:"epoch"`
	From    uint64 `json:"from"`
	Changed string `json:"changed"`
}

func (c *Coordinator) handleFlush(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	r, rec := c.traced(r, false)
	rec.Finish(c.flush(w, r, rec))
}

// flush broadcasts a flush to every shard of the pinned map, rolls the read
// cache, and returns the HTTP status it wrote.
func (c *Coordinator) flush(w http.ResponseWriter, r *http.Request, rec *obs.ReqRecord) int {
	// Flush is a write: it holds the gate shared and pins one map.
	c.writeMu.RLock()
	defer c.writeMu.RUnlock()
	m := c.curMap()
	replies := make([][]shardEpochResponse, len(m.shards))
	errs := make([]error, len(m.shards))
	var wg sync.WaitGroup
	for i, g := range m.shards {
		wg.Add(1)
		go func(i int, g *shardGroup) {
			defer wg.Done()
			bodies, err := c.client.post(r.Context(), g, "/flush", []byte("{}"), m.gen)
			if err != nil {
				errs[i] = fmt.Errorf("flush failed on shard %s: %w", g.name, err)
				return
			}
			reps := make([]shardEpochResponse, len(bodies))
			for k, b := range bodies {
				if err := json.Unmarshal(b, &reps[k]); err != nil {
					errs[i] = fmt.Errorf("shard %s flush response: %w", g.name, err)
					return
				}
			}
			replies[i] = reps
		}(i, g)
	}
	wg.Wait()
	// The flush published new epochs, so roll the read cache — success or
	// not, since a failed flush may have applied on some shards. Rolling at
	// completion, not start, keeps a read that gathered pre-flush state from
	// being cached under a live generation; rolling before the reply is
	// written keeps a client that saw the reply from reading the old body.
	rec.Event(c.rollFlush(m, replies, rec.Since()))
	for _, err := range errs {
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return http.StatusBadGateway
		}
	}
	resp := flushResponse{Epochs: make(map[string]uint64, len(m.shards))}
	for i, g := range m.shards {
		resp.Epochs[g.name] = replies[i][0].Epoch
	}
	server.WriteJSON(w, resp)
	return http.StatusOK
}

// rollFlush rolls the read cache after a routed flush and returns the trace
// event naming the roll: "roll-subspaces n", or "roll-all: " and its reason.
// replies holds every group's replica replies, nil for a group whose flush
// failed or did not decode. Only the subspaces the flush changed roll when every group's part
// is proven (advance); anything else rolls every subspace.
func (c *Coordinator) rollFlush(m *shardMap, replies [][]shardEpochResponse, at time.Duration) obs.Event {
	c.mu.Lock()
	n := mask.NumSubspaces(c.dims)
	c.mu.Unlock()
	c.rollMu.Lock()
	defer c.rollMu.Unlock()
	changed := bitset.New(n)
	var why string
	if n == 0 {
		why = "dimensionality unknown"
	}
	for i, g := range m.shards {
		// Every group advances, whatever an earlier one proved.
		if w := c.advance(g.name, replies[i], changed); why == "" {
			why = w
		}
	}
	ev := obs.Event{Kind: obs.EvCache, Start: at}
	if why != "" {
		c.allAt.Store(c.writeGen.Add(1))
		ev.Detail = "roll-all: " + why
		return ev
	}
	ev.N = int64(changed.Count())
	ev.Detail = fmt.Sprintf("roll-subspaces %d", ev.N)
	if ev.N == 0 {
		return ev
	}
	rolled := c.rolled.Load()
	if rolled == nil {
		gens := make([]atomic.Uint64, n)
		rolled = &gens
		c.rolled.Store(rolled)
	}
	gen := c.writeGen.Add(1)
	for w, word := range changed.Words64() {
		for ; word != 0; word &= word - 1 {
			(*rolled)[w<<6+bits.TrailingZeros64(word)].Store(gen)
		}
	}
	return ev
}

// rollAll rolls every subspace.
func (c *Coordinator) rollAll() {
	c.rollMu.Lock()
	defer c.rollMu.Unlock()
	c.allAt.Store(c.writeGen.Add(1))
}

// advance moves the seen epoch of group name to the one its replicas report
// after a flush, and folds the subspaces the flush changed into changed. It
// returns "" when the group's part is proven — its replicas report one
// transition, and it starts at the seen epoch, or they all report the seen
// epoch itself, which an earlier roll covered, so the group contributes
// nothing — and otherwise why only a roll of every subspace is safe. Caller
// holds rollMu; whichever roll follows covers every transition up to the
// epoch seen afterwards.
func (c *Coordinator) advance(name string, reps []shardEpochResponse, changed *bitset.Set) string {
	if len(reps) == 0 {
		return "failed shard " + name
	}
	now := reps[0]
	for _, rp := range reps[1:] {
		if rp.Epoch != now.Epoch || rp.From != now.From {
			delete(c.seen, name)
			return "replica disagreement on shard " + name
		}
	}
	seen, known := c.seen[name]
	c.seen[name] = now.Epoch
	switch {
	case known && now.Epoch == seen:
		return "" // the flush applied nothing on this group
	case now.From == 0:
		return "no transition from shard " + name
	case now.From != seen:
		return fmt.Sprintf("epoch gap on shard %s (seen %d, flushed %d to %d)", name, seen, now.From, now.Epoch)
	}
	for _, rp := range reps {
		set, err := bitset.ParseHex(rp.Changed, changed.Len())
		if err != nil {
			return "no transition from shard " + name
		}
		changed.Or(set)
	}
	return ""
}
