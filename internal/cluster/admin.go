package cluster

// Online membership: the coordinator's /admin surface mutates the shard map
// without stopping traffic.
//
//	GET  /admin/map     the current map (generation, groups, schemes)
//	POST /admin/join    {"shard","replica"}: add a caught-up replica
//	POST /admin/drain   {"shard","replica"}: remove a replica
//	POST /admin/split   {"shard","child","replicas"}: cut a child shard over
//
// Every mutation builds a NEW immutable shardMap and swaps the atomic
// pointer — in-flight requests keep the map they pinned; new requests see
// the new one. The generation number stamped on every fan-out lets shards
// reject requests carrying an older map than they have already served, so a
// query never observes a mix of topologies (see ServeHTTP in shard.go).
//
// A split's cutover sequence, write-quiesced under writeMu:
//
//	flush parent  → pending batches applied, epoch is the durable frontier
//	sync child    → each child replica pulls its source's remaining WAL tail
//	verify        → every child replica reports the parent's exact epoch
//	seal child    → child's id scheme gains a fresh stride-1 insert block
//	swap map      → ring now includes the child; writes resume
//
// then, outside the write gate, both sides prune the rows the new ring
// assigns to the other. Prune failure degrades storage, not correctness:
// until the prune lands a copied row is live on both sides, and the merge's
// id-dedup collapses the duplicates (the copies are identical points).

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"skycube/internal/server"
)

// trimURL normalises a replica URL the way newReplica does, so lookups by
// URL match regardless of a trailing slash.
func trimURL(u string) string { return strings.TrimRight(u, "/") }

// adminMapResponse is GET /admin/map.
type adminMapResponse struct {
	Gen    uint64          `json:"gen"`
	Shards []adminMapShard `json:"shards"`
}

type adminMapShard struct {
	Name       string      `json:"name"`
	Replicas   []string    `json:"replicas"`
	IDSegments []IDSegment `json:"id_segments,omitempty"`
	Diverged   bool        `json:"diverged,omitempty"`
}

func (c *Coordinator) handleAdminMap(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	c.handleAdminMapBody(w)
}

// handleAdminRefresh serves POST /admin/refresh: re-probe every shard's
// /shard/info and run the divergence repair check. This is the operator's
// lever after rebuilding a lagging replica (anti-entropy re-bootstrap, or a
// manual -join-from): once all of a diverged group's replicas answer with
// the same frontier, the writes_diverged latch clears and /healthz leaves
// "degraded". Responds with the refreshed map so the caller sees the
// surviving flags.
func (c *Coordinator) handleAdminRefresh(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	if err := c.Refresh(r.Context()); err != nil {
		http.Error(w, fmt.Sprintf("refresh: %v", err), http.StatusBadGateway)
		return
	}
	c.handleAdminMapBody(w)
}

// handleAdminMapBody writes the current-map payload (shared by GET
// /admin/map and the POST /admin/refresh response).
func (c *Coordinator) handleAdminMapBody(w http.ResponseWriter) {
	m := c.curMap()
	resp := adminMapResponse{Gen: m.gen}
	for _, g := range m.shards {
		s := adminMapShard{Name: g.name, Diverged: g.diverged.Load()}
		for _, rep := range g.replicas {
			s.Replicas = append(s.Replicas, rep.url)
		}
		if sch := g.scheme.Load(); sch != nil {
			s.IDSegments = sch.segments()
		}
		resp.Shards = append(resp.Shards, s)
	}
	server.WriteJSON(w, resp)
}

// swapMap publishes a new topology: generation+1, a ring over the new label
// set, and a write-generation bump so memoized reads roll over. Callers hold
// adminMu (serialising swaps) and writeMu exclusively (no write in flight
// across the swap).
func (c *Coordinator) swapMap(shards []*shardGroup) *shardMap {
	old := c.curMap()
	m := &shardMap{gen: old.gen + 1, shards: shards}
	m.ring = newRing(m.labels())
	c.smap.Store(m)
	c.rbm.MapSwap(m.gen, len(shards))
	c.writeGen.Add(1)
	if c.opt.Logger != nil {
		c.opt.Logger.Printf("cluster: shard map generation %d (%d shards: %v)",
			m.gen, len(shards), m.labels())
	}
	return m
}

// adoptMapGen raises the coordinator's map generation to learned without
// changing topology. Shard nodes remember the highest generation any
// coordinator ever sent them and answer lower ones with 409 — correct
// against a coordinator acting on dead topology, but a *restarted*
// coordinator starts counting at 1 again and would be locked out of its own
// cluster forever. A stale-409 carries the shard's current generation; the
// retry loops adopt it here (republishing the identical topology at the
// learned number) before re-pinning the map, so the very next attempt
// carries a generation the shards accept. The write generation is not
// bumped: the topology is unchanged, so memoized reads stay valid.
func (c *Coordinator) adoptMapGen(learned uint64) {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	c.adoptMapGenLocked(learned)
}

// adoptMapGenLocked is adoptMapGen for callers already holding adminMu —
// the membership handlers, whose shard calls can be the restarted
// coordinator's first contact with the cluster.
func (c *Coordinator) adoptMapGenLocked(learned uint64) {
	if learned == 0 {
		return
	}
	old := c.curMap()
	if learned <= old.gen {
		return
	}
	m := &shardMap{gen: learned, shards: old.shards, ring: old.ring}
	c.smap.Store(m)
	c.rbm.MapSwap(m.gen, len(m.shards))
	if c.opt.Logger != nil {
		c.opt.Logger.Printf("cluster: adopted shard map generation %d from a shard node (restart recovery)", m.gen)
	}
}

// nextSplitBase picks the first global id of the next sealed insert block:
// the reserved split region's start, past every block any shard has already
// sealed. Blocks are splitBlockSize apart, so a shard can insert a million
// rows post-split before colliding with the next split's block — and a seal
// request beyond that is rejected by the shard's own overlap check.
func nextSplitBase(m *shardMap) int32 {
	base := int32(SplitBlockBase)
	for _, g := range m.shards {
		s := g.scheme.Load()
		if s == nil {
			continue
		}
		for _, seg := range s.segments() {
			if seg.Stride == 1 && seg.Base >= SplitBlockBase && seg.Base+splitBlockSize > base {
				base = seg.Base + splitBlockSize
			}
		}
	}
	return base
}

// adminTargetRequest addresses one replica of one shard (join, drain).
type adminTargetRequest struct {
	Shard   string `json:"shard"`
	Replica string `json:"replica"`
}

// adminSwapResponse reports a completed membership change.
type adminSwapResponse struct {
	Gen      uint64   `json:"gen"`
	Shard    string   `json:"shard"`
	Replicas []string `json:"replicas"`
}

// handleAdminJoin adds a replica to a shard group. The replica must already
// be serving the shard's state (bootstrapped via the rebalance snapshot
// stream); the handler verifies it under the write gate — writes quiesced,
// the replica's frontier must equal the group's exactly — so from the swap
// on, write-all delivery keeps it converged.
func (c *Coordinator) handleAdminJoin(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req adminTargetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	m := c.curMap()
	g := m.find(req.Shard)
	if g == nil {
		http.Error(w, fmt.Sprintf("no shard %q in the map", req.Shard), http.StatusNotFound)
		return
	}
	rep := c.newReplica(req.Replica)
	for _, have := range g.replicas {
		if have.url == rep.url {
			http.Error(w, fmt.Sprintf("replica %s already serves shard %s", rep.url, g.name),
				http.StatusConflict)
			return
		}
	}

	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	groupEpoch, groupLive, err := c.groupFrontier(r, g, m.gen)
	if err != nil {
		http.Error(w, fmt.Sprintf("shard %s frontier: %v", g.name, err), http.StatusBadGateway)
		return
	}
	repEpoch, repLive, err := c.replicaFrontier(r.Context(), rep.url)
	if err != nil {
		http.Error(w, fmt.Sprintf("joining replica %s: %v", rep.url, err), http.StatusBadGateway)
		return
	}
	if repEpoch != groupEpoch || repLive != groupLive {
		http.Error(w, fmt.Sprintf(
			"replica %s is at epoch %d (%d live), shard %s is at epoch %d (%d live): bootstrap it first",
			rep.url, repEpoch, repLive, g.name, groupEpoch, groupLive), http.StatusConflict)
		return
	}

	shards := make([]*shardGroup, len(m.shards))
	for i, og := range m.shards {
		if og == g {
			ng := og.clone()
			ng.replicas = append(ng.replicas, rep)
			shards[i] = ng
		} else {
			shards[i] = og
		}
	}
	nm := c.swapMap(shards)
	server.WriteJSON(w, adminSwapResponse{Gen: nm.gen, Shard: g.name, Replicas: replicaURLs(nm.find(g.name))})
}

// handleAdminDrain removes a replica from a shard group. The drained replica
// keeps serving whatever it holds (and can be wiped or re-joined later); it
// simply stops receiving traffic from maps at the new generation on.
func (c *Coordinator) handleAdminDrain(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req adminTargetRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	m := c.curMap()
	g := m.find(req.Shard)
	if g == nil {
		http.Error(w, fmt.Sprintf("no shard %q in the map", req.Shard), http.StatusNotFound)
		return
	}
	idx := -1
	for i, have := range g.replicas {
		if have.url == trimURL(req.Replica) {
			idx = i
		}
	}
	if idx < 0 {
		http.Error(w, fmt.Sprintf("replica %s does not serve shard %s", req.Replica, g.name),
			http.StatusNotFound)
		return
	}
	if len(g.replicas) == 1 {
		http.Error(w, fmt.Sprintf("replica %s is shard %s's last: draining it would lose the shard",
			req.Replica, g.name), http.StatusConflict)
		return
	}

	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	shards := make([]*shardGroup, len(m.shards))
	for i, og := range m.shards {
		if og == g {
			ng := og.clone()
			ng.replicas = append(ng.replicas[:idx], ng.replicas[idx+1:]...)
			shards[i] = ng
		} else {
			shards[i] = og
		}
	}
	nm := c.swapMap(shards)
	server.WriteJSON(w, adminSwapResponse{Gen: nm.gen, Shard: g.name, Replicas: replicaURLs(nm.find(g.name))})
}

// adminSplitRequest cuts a pre-bootstrapped child shard into the map.
type adminSplitRequest struct {
	// Shard is the parent being split.
	Shard string `json:"shard"`
	// Child names the new shard; Replicas are its replica URLs, each already
	// bootstrapped as a full copy of the parent (rebalance.Bootstrap with the
	// source node left attached, so /shard/sync can pull the final tail).
	Child    string   `json:"child"`
	Replicas []string `json:"replicas"`
}

// adminSplitResponse reports the cutover.
type adminSplitResponse struct {
	Gen         uint64      `json:"gen"`
	Parent      string      `json:"parent"`
	Child       string      `json:"child"`
	Synced      int         `json:"synced"`
	Epoch       uint64      `json:"epoch"`
	IDSegments  []IDSegment `json:"child_id_segments"`
	PruneErrors []string    `json:"prune_errors,omitempty"`
}

func (c *Coordinator) handleAdminSplit(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req adminSplitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Child == "" || len(req.Replicas) == 0 {
		http.Error(w, "split needs a child name and at least one replica URL", http.StatusBadRequest)
		return
	}
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	m := c.curMap()
	parent := m.find(req.Shard)
	if parent == nil {
		http.Error(w, fmt.Sprintf("no shard %q in the map", req.Shard), http.StatusNotFound)
		return
	}
	if m.find(req.Child) != nil {
		http.Error(w, fmt.Sprintf("shard %q already exists", req.Child), http.StatusConflict)
		return
	}
	child := &shardGroup{name: req.Child}
	for _, u := range req.Replicas {
		child.replicas = append(child.replicas, c.newReplica(u))
	}

	// --- cutover, write-quiesced ---
	c.writeMu.Lock()
	// 1. Flush the parent: pending batches apply and the epoch advances to
	// the durable frontier the child must reach. The flush is journaled, so
	// the child's tail replay performs the identical flush.
	flushBodies, err := c.client.post(r.Context(), parent, "/flush", []byte("{}"), m.gen)
	if staleMapGen(err) {
		// First contact after a coordinator restart: adopt the shards'
		// generation and retry, so a split works without a prior read.
		c.adoptMapGenLocked(staleGenOf(err))
		m = c.curMap()
		flushBodies, err = c.client.post(r.Context(), parent, "/flush", []byte("{}"), m.gen)
	}
	if err != nil {
		c.writeMu.Unlock()
		http.Error(w, fmt.Sprintf("split: flush parent %s: %v", parent.name, err), http.StatusBadGateway)
		return
	}
	var parentEpoch shardEpochResponse
	if err := json.Unmarshal(flushBodies[0], &parentEpoch); err != nil {
		c.writeMu.Unlock()
		http.Error(w, fmt.Sprintf("split: parent flush response: %v", err), http.StatusBadGateway)
		return
	}

	// 2. Sync: every child replica pulls its bootstrap source's remaining
	// tail. Write-all, so each replica converges independently.
	syncBodies, err := c.client.post(r.Context(), child, "/shard/sync", []byte("{}"), m.gen)
	if err != nil {
		c.writeMu.Unlock()
		http.Error(w, fmt.Sprintf("split: sync child %s: %v", req.Child, err), http.StatusBadGateway)
		return
	}
	synced := 0
	for i, body := range syncBodies {
		var sr syncResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			c.writeMu.Unlock()
			http.Error(w, fmt.Sprintf("split: child sync response: %v", err), http.StatusBadGateway)
			return
		}
		synced += sr.Applied
		// 3. Verify: with writes quiesced the frontiers must agree exactly;
		// anything else means the copy diverged and cutting over would serve
		// wrong answers.
		if sr.Epoch != parentEpoch.Epoch {
			c.writeMu.Unlock()
			http.Error(w, fmt.Sprintf(
				"split: child replica %s synced to epoch %d, parent %s is at %d: not cutting over",
				child.replicas[i].url, sr.Epoch, parent.name, parentEpoch.Epoch), http.StatusConflict)
			return
		}
	}

	// 4. Seal the child's id scheme: rows it holds keep their copied global
	// ids; rows it inserts from now on draw from a fresh stride-1 block, so
	// parent and child arithmetics never collide on new ids.
	sealBody, err := json.Marshal(sealRequest{Base: nextSplitBase(m)})
	if err != nil {
		c.writeMu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sealBodies, err := c.client.post(r.Context(), child, "/shard/seal", sealBody, m.gen)
	if err != nil {
		c.writeMu.Unlock()
		http.Error(w, fmt.Sprintf("split: seal child %s: %v", req.Child, err), http.StatusBadGateway)
		return
	}
	var sealed sealResponse
	if err := json.Unmarshal(sealBodies[0], &sealed); err != nil {
		c.writeMu.Unlock()
		http.Error(w, fmt.Sprintf("split: child seal response: %v", err), http.StatusBadGateway)
		return
	}
	scheme, err := schemeFromSegments(sealed.IDSegments)
	if err != nil {
		c.writeMu.Unlock()
		http.Error(w, fmt.Sprintf("split: child sealed scheme: %v", err), http.StatusBadGateway)
		return
	}
	child.scheme.Store(scheme)

	// 5. Swap: the ring now includes the child; writes resume on the new map.
	shards := append(append([]*shardGroup(nil), m.shards...), child)
	nm := c.swapMap(shards)
	c.writeMu.Unlock()

	// 6. Prune, outside the write gate: each side drops the rows the new
	// ring assigns to the other. Until this lands both sides hold the copied
	// rows — reads stay exact through the merge's id-dedup — so a prune
	// failure is reported, not fatal; the operator re-runs it.
	var pruneErrs []string
	labels := nm.labels()
	prune := func(g *shardGroup, drop []string) {
		body, err := json.Marshal(pruneRequest{Labels: labels, Own: g.name, Drop: drop})
		if err != nil {
			pruneErrs = append(pruneErrs, fmt.Sprintf("%s: %v", g.name, err))
			return
		}
		if _, err := c.client.post(r.Context(), g, "/shard/prune", body, nm.gen); err != nil {
			pruneErrs = append(pruneErrs, fmt.Sprintf("%s: %v", g.name, err))
		}
	}
	prune(nm.find(parent.name), []string{child.name})
	var childDrop []string
	for _, l := range labels {
		if l != child.name {
			childDrop = append(childDrop, l)
		}
	}
	prune(nm.find(child.name), childDrop)
	// The prunes advanced shard epochs outside a coordinator write; roll the
	// read memo so no pre-prune body outlives them.
	c.writeGen.Add(1)

	server.WriteJSON(w, adminSplitResponse{
		Gen:         nm.gen,
		Parent:      parent.name,
		Child:       child.name,
		Synced:      synced,
		Epoch:       parentEpoch.Epoch,
		IDSegments:  sealed.IDSegments,
		PruneErrors: pruneErrs,
	})
}

// groupFrontier reads the shard group's (epoch, live) through the normal
// fan-out client (any admitting replica answers; write-all keeps them equal).
func (c *Coordinator) groupFrontier(r *http.Request, g *shardGroup, gen uint64) (uint64, int, error) {
	body, err := c.client.get(r.Context(), g, "/shard/info", gen)
	if staleMapGen(err) {
		// A restarted coordinator counts from 1 while the shards remember
		// the old map's generation: adopt theirs and re-ask, so membership
		// operations work without requiring a refresh first. Callers hold
		// adminMu, so this must be the locked variant.
		c.adoptMapGenLocked(staleGenOf(err))
		body, err = c.client.get(r.Context(), g, "/shard/info", c.curMap().gen)
	}
	if err != nil {
		return 0, 0, err
	}
	var info shardInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return 0, 0, err
	}
	return info.Epoch, info.Live, nil
}

func replicaURLs(g *shardGroup) []string {
	if g == nil {
		return nil
	}
	out := make([]string, len(g.replicas))
	for i, rep := range g.replicas {
		out[i] = rep.url
	}
	return out
}
