package cluster

import (
	"errors"
	"net/http"
	"sort"
	"time"

	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/server"
)

// ?explain=1 on the coordinator's /skyline: answer the query AND return a
// JSON timing breakdown of the fan-out instead of the skyline payload —
// per-replica attempt latencies, which attempt was the hedge and whether it
// won, retries, breaker rejections, per-shard candidate counts and response
// bytes, merge and encode durations. The breakdown is an interpretation of the same typed events the trace ring
// records (one recording mechanism, two renderings), so explain output and
// /debug/requests never disagree.
//
// Explain always bypasses the coordinator's cache and is itself never
// memoized: it always gathers, merges and encodes, since its purpose is to
// observe the real scatter — hedges, retries, breakers — not a cache probe.

// explainResponse is the ?explain=1 payload.
type explainResponse struct {
	TraceID string `json:"trace_id"`
	Status  int    `json:"status"`
	Dims    []int  `json:"dims"`
	// DurNS is the end-to-end latency of this query as measured around the
	// whole fan-out; every stage below nests inside it.
	DurNS        int64            `json:"dur_ns"`
	Count        int              `json:"count"`
	Candidates   int64            `json:"candidates"`
	Partial      bool             `json:"partial,omitempty"`
	FailedShards []string         `json:"failed_shards,omitempty"`
	Shards       []explainShard   `json:"shards"`
	Merge        *explainStage    `json:"merge,omitempty"`
	Encode       *explainStage    `json:"encode,omitempty"`
	Attempts     []explainAttempt `json:"attempts"`
}

// explainShard summarises one shard's contribution to the scatter.
type explainShard struct {
	Shard string `json:"shard"`
	// StartNS/DurNS bound the shard's dispatch-to-accept interval (across
	// hedges and retries).
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Candidates/Bytes are the shard-reported candidate count and the
	// length of the frame it shipped; Epoch is the shard's serving epoch.
	Candidates int64  `json:"candidates"`
	Bytes      int64  `json:"bytes"`
	Epoch      uint64 `json:"epoch,omitempty"`
	Attempts   int    `json:"attempts"`
	Hedges     int    `json:"hedges"`
	Retries    int    `json:"retries"`
	// BreakerRejects counts launch attempts no replica's breaker admitted.
	BreakerRejects int    `json:"breaker_rejects,omitempty"`
	Err            string `json:"error,omitempty"`
}

// explainAttempt is one HTTP attempt against a replica.
type explainAttempt struct {
	Shard   string `json:"shard"`
	Replica string `json:"replica"`
	Hedge   bool   `json:"hedge,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"error,omitempty"`
}

// explainStage is a coordinator-local pipeline stage (merge, encode). Detail
// is the merge's work in counts, as mergeStats renders them.
type explainStage struct {
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	N       int64  `json:"n,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// serveExplain runs the real fan-out for the query and writes the timing
// breakdown. rec is never nil here — handleSkyline forces a record for
// explain requests.
func (c *Coordinator) serveExplain(w http.ResponseWriter, r *http.Request, rec *obs.ReqRecord, dims []int, delta mask.Mask, start time.Time) int {
	_, err := c.computeSkyline(r.Context(), c.curMap(), dims, delta)
	status := http.StatusOK
	resp := explainResponse{TraceID: rec.TraceID(), Dims: dims}
	if err != nil {
		var pe *partialError
		var ge *gatewayError
		switch {
		case errors.Is(err, errStaleMap):
			// Explain bypasses the retry loop (one fan-out, one breakdown);
			// a cutover racing it is simply reported.
			status = http.StatusServiceUnavailable
			http.Error(w, "shard map changed during the explain fan-out; retry", status)
			return status
		case errors.As(err, &pe):
			status = http.StatusPartialContent
			resp.Partial = true
		case errors.As(err, &ge):
			status = http.StatusBadGateway
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return http.StatusInternalServerError
		}
	}
	resp.Status = status
	buildExplain(&resp, rec.Snapshot(), time.Since(start))
	w.Header().Set("Cache-Control", "no-store")
	server.WriteJSONStatus(w, status, resp)
	return status
}

// buildExplain folds the record's events into the breakdown. Separated from
// serveExplain (and fed a snapshot) so tests can drive it with a synthetic
// event list.
func buildExplain(resp *explainResponse, snap obs.RecordSnapshot, total time.Duration) {
	resp.DurNS = total.Nanoseconds()
	resp.Attempts = []explainAttempt{}
	byShard := map[string]*explainShard{}
	order := []string{}
	shard := func(name string) *explainShard {
		s, ok := byShard[name]
		if !ok {
			s = &explainShard{Shard: name}
			byShard[name] = s
			order = append(order, name)
		}
		return s
	}
	for _, e := range snap.Events {
		switch e.Kind {
		case obs.EvAttempt:
			s := shard(e.Shard)
			s.Attempts++
			resp.Attempts = append(resp.Attempts, explainAttempt{
				Shard:   e.Shard,
				Replica: e.Replica,
				Hedge:   e.Hedge,
				StartNS: e.Start.Nanoseconds(),
				DurNS:   e.Dur.Nanoseconds(),
				Err:     e.Err,
			})
		case obs.EvHedge:
			shard(e.Shard).Hedges++
		case obs.EvRetry:
			shard(e.Shard).Retries++
		case obs.EvBreakerReject:
			shard(e.Shard).BreakerRejects++
		case obs.EvShardResult:
			s := shard(e.Shard)
			s.StartNS = e.Start.Nanoseconds()
			s.DurNS = e.Dur.Nanoseconds()
			s.Candidates = e.N
			s.Bytes = e.Bytes
			s.Epoch = e.Epoch
			s.Err = e.Err
			if e.Err == "" {
				resp.Candidates += e.N
			} else {
				resp.FailedShards = append(resp.FailedShards, e.Shard)
			}
		case obs.EvMerge:
			resp.Merge = &explainStage{StartNS: e.Start.Nanoseconds(),
				DurNS: e.Dur.Nanoseconds(), N: e.N, Detail: e.Detail}
			resp.Count = int(e.N)
		case obs.EvEncode:
			resp.Encode = &explainStage{StartNS: e.Start.Nanoseconds(),
				DurNS: e.Dur.Nanoseconds(), Bytes: e.Bytes}
		}
	}
	sort.Strings(order)
	resp.Shards = make([]explainShard, 0, len(order))
	for _, name := range order {
		resp.Shards = append(resp.Shards, *byShard[name])
	}
	sort.Strings(resp.FailedShards)
	sort.Slice(resp.Attempts, func(i, j int) bool {
		if resp.Attempts[i].Shard != resp.Attempts[j].Shard {
			return resp.Attempts[i].Shard < resp.Attempts[j].Shard
		}
		return resp.Attempts[i].StartNS < resp.Attempts[j].StartNS
	})
}
