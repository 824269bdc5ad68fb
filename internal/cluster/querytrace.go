package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"skycube/internal/obs"
	"skycube/internal/server"
)

// GET /trace/query?id=<32-hex trace id>: the assembled cross-process Chrome
// trace of one traced query. The coordinator's own hop record anchors the
// timeline; every replica of every shard is then asked (best-effort, in
// parallel) for its hop records of the same trace id via /debug/requests,
// and each hop's spans are offset by its wall-clock start relative to the
// coordinator hop. The result loads into about://tracing or
// https://ui.perfetto.dev: one "coordinator" track plus one track per
// shard/replica hop, with the replica attempts, the winning hedge, the
// shard-local cache probe and cuboid extraction, and the final merge and
// encode all on one timeline.
//
// Clock skew between processes shifts shard tracks by the skew (offsets are
// wall-clock differences); within one machine — the common debugging setup —
// this is negligible.

// traceFetchTimeout bounds the whole shard-ring collection; a dead replica
// must not stall the trace export.
const traceFetchTimeout = 2 * time.Second

func (c *Coordinator) handleTraceQuery(w http.ResponseWriter, r *http.Request) {
	if !server.AllowMethod(w, r, http.MethodGet) {
		return
	}
	id := r.URL.Query().Get("id")
	if _, ok := obs.ParseTraceID(id); !ok {
		http.Error(w, fmt.Sprintf("bad id %q (need the 32-hex trace id from /debug/requests, explain output or the slow-query log)", id),
			http.StatusBadRequest)
		return
	}
	root := c.opt.Requests.Find(id)
	if root == nil {
		http.Error(w, fmt.Sprintf("trace %s not resident (evicted from the ring, or never sampled)", id),
			http.StatusNotFound)
		return
	}
	rootSnap := root.Snapshot()
	spans := obs.SnapshotSpans(rootSnap, 0, "coordinator")

	// Collect the shards' hop records for this trace, best-effort: a replica
	// that is down or was never contacted contributes nothing.
	type hop struct {
		track string
		snaps []obs.RecordSnapshot
	}
	ctx, cancel := context.WithTimeout(r.Context(), traceFetchTimeout)
	defer cancel()
	var wg sync.WaitGroup
	ch := make(chan hop)
	for _, g := range c.curMap().shards {
		for _, rep := range g.replicas {
			wg.Add(1)
			go func(shard, url string) {
				defer wg.Done()
				snaps, err := c.fetchHops(ctx, url, id)
				if err != nil || len(snaps) == 0 {
					return
				}
				ch <- hop{track: shard + " " + url, snaps: snaps}
			}(g.name, rep.url)
		}
	}
	go func() { wg.Wait(); close(ch) }()
	for h := range ch {
		for _, snap := range h.snaps {
			base := snap.Start.Sub(rootSnap.Start)
			spans = append(spans, obs.SnapshotSpans(snap, base, h.track)...)
		}
	}

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf(`attachment; filename="trace-%s.json"`, id))
	_ = obs.WriteChromeSpans(w, spans)
}

// fetchHops pulls one replica's hop records for a trace id from its
// /debug/requests endpoint.
func (c *Coordinator) fetchHops(ctx context.Context, replicaURL, trace string) ([]obs.RecordSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		replicaURL+"/debug/requests?trace="+trace, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s/debug/requests: status %d", replicaURL, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	return obs.DecodeRequests(body)
}
