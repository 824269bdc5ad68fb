package cluster

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"skycube/internal/delta"
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
	// The flush published new epochs, so roll the read cache — success or
	// not, since a failed flush may have applied on some shards. Rolling at
	// completion, not start, keeps a read that gathered pre-flush state from
	// being cached under the post-flush generation; rolling before the reply
	// is written keeps a client that saw the reply from reading the old body.
	c.writeGen.Add(1)
	close(errCh)
	if err := <-errCh; err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	server.WriteJSON(w, resp)
}
