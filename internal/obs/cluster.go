package obs

import "time"

// ClusterMetrics bundles the metric families of the scatter-gather cluster
// tier (internal/cluster): per-shard fan-out latency, hedge/retry/breaker
// counters and the merge filter ratio. A nil *ClusterMetrics is valid
// everywhere and records nothing, mirroring the nil-trace fast path.
type ClusterMetrics struct {
	reg *Registry
}

// NewClusterMetrics wires cluster metrics into reg; a nil registry yields a
// nil (no-op) bundle.
func NewClusterMetrics(reg *Registry) *ClusterMetrics {
	if reg == nil {
		return nil
	}
	return &ClusterMetrics{reg: reg}
}

// Fanout records one shard's contribution to a scatter-gather query: the
// wall time from dispatch to an accepted response (across retries and
// hedges), and whether the shard ultimately answered.
func (m *ClusterMetrics) Fanout(shard string, dur time.Duration, ok bool) {
	if m == nil {
		return
	}
	m.reg.HistogramM("skycube_cluster_fanout_seconds",
		"Per-shard scatter-gather latency, dispatch to accepted response.",
		nil, "shard", shard).Observe(dur.Seconds())
	if !ok {
		m.reg.CounterM("skycube_cluster_shard_failures_total",
			"Scatter-gather sub-requests that exhausted every replica.",
			"shard", shard).Inc()
	}
}

// Hedge records a hedged read being launched, and whether the hedge (the
// late request to the second replica) was the one that answered first.
func (m *ClusterMetrics) Hedge(shard string, won bool) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_cluster_hedges_total",
		"Hedged reads launched against a second replica.", "shard", shard).Inc()
	if won {
		m.reg.CounterM("skycube_cluster_hedge_wins_total",
			"Hedged reads where the hedge beat the primary.", "shard", shard).Inc()
	}
}

// Retry records one retry attempt against a shard's replica set.
func (m *ClusterMetrics) Retry(shard string) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_cluster_retries_total",
		"Retries of failed sub-requests (after backoff).", "shard", shard).Inc()
}

// Breaker records a circuit-breaker state change for one replica. state is
// 0 closed, 1 open, 2 half-open (the gauge makes the current state
// scrapeable; opens are additionally counted).
func (m *ClusterMetrics) Breaker(replica string, state int) {
	if m == nil {
		return
	}
	m.reg.GaugeM("skycube_cluster_breaker_state",
		"Replica circuit-breaker state: 0 closed, 1 open, 2 half-open.",
		"replica", replica).Set(float64(state))
	if state == 1 {
		m.reg.CounterM("skycube_cluster_breaker_opens_total",
			"Circuit-breaker open transitions.", "replica", replica).Inc()
	}
}

// Merge records one coordinator merge: how many candidate ids the shards
// returned and how many survived the final dominance filter. The ratio
// kept/candidates is the merge filter ratio — how much of the shard-local
// superset was real.
func (m *ClusterMetrics) Merge(candidates, kept int) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_cluster_merge_candidates_total",
		"Shard-local candidate ids gathered before the final dominance filter.").Add(float64(candidates))
	m.reg.CounterM("skycube_cluster_merge_kept_total",
		"Ids surviving the final dominance filter (global skyline members).").Add(float64(kept))
	if candidates > 0 {
		m.reg.GaugeM("skycube_cluster_merge_filter_ratio",
			"kept/candidates of the latest merge: 1 means shard-local results were already exact.").
			Set(float64(kept) / float64(candidates))
	}
}

// Query records one coordinator query end-to-end: total latency and whether
// the response was complete or explicitly partial (a whole shard down).
func (m *ClusterMetrics) Query(dur time.Duration, partial bool) {
	m.QueryTraced(dur, partial, "")
}

// QueryTraced is Query with the sampled query's trace id attached as the
// latency bucket's exemplar, so a p99 bucket on the metrics page names a
// concrete trace inspectable via /debug/requests and /trace/query.
func (m *ClusterMetrics) QueryTraced(dur time.Duration, partial bool, traceID string) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_cluster_queries_total",
		"Scatter-gather skyline queries served by the coordinator.").Inc()
	m.reg.HistogramM("skycube_cluster_query_seconds",
		"End-to-end coordinator query latency (scatter, gather, merge).", nil).
		ObserveExemplar(dur.Seconds(), traceID)
	if partial {
		m.reg.CounterM("skycube_cluster_partial_responses_total",
			"Queries answered with an explicit partial result (a shard had no live replica).").Inc()
	}
}
