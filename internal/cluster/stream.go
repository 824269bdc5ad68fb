package cluster

// Shard-side state-transfer and rebalance endpoints. Together with
// internal/rebalance they form the elastic-membership protocol:
//
//	GET  /shard/snapshot          pin a fresh checkpoint and stream its bytes
//	GET  /shard/tail?from=&skip=  the WAL records appended after a snapshot
//	POST /shard/sync              pull the bootstrap source's remaining tail
//	POST /shard/seal              {"base": N}: seal a fresh insert-id block
//	POST /shard/prune             {"labels", "own", "drop"}: delete rows the
//	                              new ring hands to a dropped label
//
// Snapshot and tail are read-only and always safe. Sync, seal and prune are
// cutover steps the coordinator drives write-quiesced (its map swap gates
// inserts and deletes around them).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"skycube/internal/rebalance"
	"skycube/internal/server"
	"skycube/internal/wal"
)

// handleSnapshot serves GET /shard/snapshot: checkpoint now — pinning the
// current epoch so the paired tail starts exactly where the snapshot ends —
// and stream the checkpoint file verbatim. Requires a durable shard; an
// in-memory shard has no checkpoint format to serve.
func (s *Shard) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	st := s.up.Store()
	if st == nil {
		http.Error(w, "shard is not durable: no snapshot stream to serve", http.StatusServiceUnavailable)
		return
	}
	start := time.Now()
	if err := st.Checkpoint(s.up.Delta()); err != nil {
		http.Error(w, fmt.Sprintf("checkpoint: %v", err), http.StatusInternalServerError)
		return
	}
	raw, seq, err := st.StreamSnapshot()
	if err != nil {
		http.Error(w, fmt.Sprintf("snapshot stream: %v", err), http.StatusInternalServerError)
		return
	}
	s.rbm.SnapshotServed(len(raw), time.Since(start))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(rebalance.TailSeqHeader, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(raw)))
	w.Write(raw)
}

// handleTail serves GET /shard/tail?from=&skip=: the CRC-framed records of
// the contiguous segment chain from `from` through the active segment,
// minus the first `skip` already delivered. 410 Gone means a checkpoint
// truncated the chain — the caller restarts from a fresh snapshot.
func (s *Shard) handleTail(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	st := s.up.Store()
	if st == nil {
		http.Error(w, "shard is not durable: no WAL tail to serve", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		http.Error(w, fmt.Sprintf("bad from %q (need a segment seq >= 1)", q.Get("from")), http.StatusBadRequest)
		return
	}
	skip := 0
	if ss := q.Get("skip"); ss != "" {
		if skip, err = strconv.Atoi(ss); err != nil || skip < 0 {
			http.Error(w, fmt.Sprintf("bad skip %q", ss), http.StatusBadRequest)
			return
		}
	}
	recs, total, err := st.TailChain(from, skip)
	if err != nil {
		if errors.Is(err, wal.ErrTailTruncated) {
			http.Error(w, err.Error(), http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body, err := wal.EncodeRecords(recs)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.rbm.TailServed(len(recs), len(body))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(rebalance.TailSeqHeader, strconv.FormatUint(st.Seq(), 10))
	w.Header().Set(rebalance.TailTotalHeader, strconv.Itoa(total))
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// syncResponse is the POST /shard/sync payload: the catch-up's outcome and
// the shard's resulting frontier, which the coordinator compares against the
// source shard's before cutting a split over.
type syncResponse struct {
	Applied int    `json:"applied"`
	Epoch   uint64 `json:"epoch"`
	Live    int    `json:"live"`
}

// handleSync serves POST /shard/sync: pull the bootstrap source's WAL tail
// from this shard's cursor and apply it. The coordinator calls this
// write-quiesced as a split's final catch-up; the response's epoch matching
// the source's proves the copy converged.
func (s *Shard) handleSync(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	s.sourceMu.Lock()
	defer s.sourceMu.Unlock()
	if s.source == nil {
		http.Error(w, "shard has no bootstrap source attached", http.StatusPreconditionFailed)
		return
	}
	applied, err := s.source.CatchUp(r.Context())
	if err != nil {
		http.Error(w, fmt.Sprintf("sync: %v", err), http.StatusBadGateway)
		return
	}
	snap := s.up.Current()
	server.WriteJSON(w, syncResponse{Applied: applied, Epoch: snap.Epoch(), Live: snap.Live()})
}

// sealRequest is the POST /shard/seal body.
type sealRequest struct {
	// Base is the first global id of the fresh stride-1 insert block; it must
	// lie in the reserved split region (>= SplitBlockBase).
	Base int32 `json:"base"`
}

// sealResponse echoes the resulting scheme.
type sealResponse struct {
	IDSegments []IDSegment `json:"id_segments"`
	Sealed     bool        `json:"sealed"`
}

// handleSeal serves POST /shard/seal: extend the id scheme with a fresh
// stride-1 block covering every row inserted from now on. The coordinator
// calls this write-quiesced at a split cutover; the boundary is the id the
// updater's next Insert gets, so pending inserts, cancelled ones included,
// keep their ids. The extended scheme is checkpointed before it serves or
// is answered. The seal also detaches the bootstrap source: the child's own
// writes advance its epoch from here on, so its background compactor may
// start. Repeating a seal with the same base is a no-op (cutover retries
// are idempotent).
func (s *Shard) handleSeal(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req sealRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad seal request: %v", err), http.StatusBadRequest)
		return
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	cur := s.scheme.Load()
	last := cur.segs[len(cur.segs)-1]
	if last.Stride == 1 && last.Base == req.Base {
		server.WriteJSON(w, sealResponse{IDSegments: cur.segments(), Sealed: true})
		return
	}
	sealed, err := cur.seal(s.up.Delta().NextID(), req.Base)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err := persistScheme(s.up, sealed); err != nil {
		s.up.Delta().SetIDSegments(cur.segs)
		http.Error(w, fmt.Sprintf("seal: %v", err), http.StatusInternalServerError)
		return
	}
	s.scheme.Store(sealed)
	if s.source != nil {
		s.sourceMu.Lock()
		s.source.Detach()
		s.sourceMu.Unlock()
	}
	server.WriteJSON(w, sealResponse{IDSegments: sealed.segments(), Sealed: true})
}

// pruneRequest is the POST /shard/prune body: the post-cutover shard labels
// (the new ring), which label this shard is, and which labels' rows to drop.
// After a split copies a parent wholesale into a child, each copied row is
// live on both; prune deletes it from whichever side the new ring does NOT
// assign it to — parent drops [child], child drops every label but its own —
// so each copied row survives on exactly one shard. Rows the new ring
// assigns to labels outside drop stay put: reads fan out to every shard, so
// a row's residence never needs to match its ring arc.
type pruneRequest struct {
	Labels []string `json:"labels"`
	Own    string   `json:"own"`
	Drop   []string `json:"drop"`
}

// pruneResponse reports the sweep's outcome.
type pruneResponse struct {
	Examined int    `json:"examined"`
	Deleted  int    `json:"deleted"`
	Failed   int    `json:"failed,omitempty"`
	Epoch    uint64 `json:"epoch"`
	Live     int    `json:"live"`
}

// handlePrune serves POST /shard/prune. Victims go through the ordinary
// journaled Delete path, so the sweep is durable, crash-recoverable, and
// (applied to each replica of a group) deterministic.
func (s *Shard) handlePrune(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req pruneRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad prune request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Labels) == 0 || len(req.Drop) == 0 {
		http.Error(w, "prune needs labels and a non-empty drop list", http.StatusBadRequest)
		return
	}
	ownIdx := -1
	for i, l := range req.Labels {
		if l == req.Own {
			ownIdx = i
		}
	}
	if ownIdx < 0 {
		http.Error(w, fmt.Sprintf("own label %q not in labels", req.Own), http.StatusBadRequest)
		return
	}
	drop := make(map[int]bool, len(req.Drop))
	for _, d := range req.Drop {
		found := false
		for i, l := range req.Labels {
			if l == d {
				drop[i] = true
				found = true
			}
		}
		if !found {
			http.Error(w, fmt.Sprintf("drop label %q not in labels", d), http.StatusBadRequest)
			return
		}
	}
	if drop[ownIdx] {
		http.Error(w, fmt.Sprintf("own label %q cannot be in the drop list", req.Own), http.StatusBadRequest)
		return
	}

	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	start := time.Now()
	ring := newRing(req.Labels)
	snap := s.up.Current()
	examined, deleted, failed := 0, 0, 0
	for row := int32(0); int(row) < snap.Len(); row++ {
		if !snap.Alive(row) {
			continue
		}
		examined++
		if !drop[ring.owner(hashPoint(snap.Point(row)))] {
			continue
		}
		// Per-row errors (e.g. a concurrent delete already got it) don't
		// abort the sweep: the goal state is "victims gone", and a row that
		// is already gone is at the goal.
		if err := s.up.Delete(row); err != nil {
			failed++
			continue
		}
		deleted++
	}
	after := s.up.Flush()
	// The flush committed its marker, and the deletes before it, itself.
	if st := s.up.Store(); st != nil {
		if err := st.Err(); err != nil {
			http.Error(w, fmt.Sprintf("prune commit: %v", err), http.StatusInternalServerError)
			return
		}
	}
	s.rbm.Prune(examined, deleted, time.Since(start))
	server.WriteJSON(w, pruneResponse{
		Examined: examined,
		Deleted:  deleted,
		Failed:   failed,
		Epoch:    after.Epoch(),
		Live:     after.Live(),
	})
}
