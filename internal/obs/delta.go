package obs

import "time"

// DeltaMetrics bundles the metric families of the incremental-maintenance
// subsystem (internal/delta): batch/epoch counters, overlay pressure and
// compaction timings. A nil *DeltaMetrics is valid everywhere and records
// nothing, mirroring the nil-trace fast path.
type DeltaMetrics struct {
	reg *Registry
}

// NewDeltaMetrics wires delta metrics into reg; a nil registry yields a nil
// (no-op) bundle.
func NewDeltaMetrics(reg *Registry) *DeltaMetrics {
	if reg == nil {
		return nil
	}
	return &DeltaMetrics{reg: reg}
}

// Batch records one applied delta batch: its insert/delete counts, how many
// of the inserts entered at least one skyline (members — the reverse pass
// runs over these alone, so they, not the batch size, set a flush's cost),
// how many cuboids the deletes forced the batch to re-derive, how many
// outsiders they promoted to loose, and the apply wall time.
func (m *DeltaMetrics) Batch(inserts, members, deletes, recomputed, promoted int, dur time.Duration) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_delta_batches_total",
		"Delta batches applied by the updater.").Inc()
	m.reg.CounterM("skycube_delta_inserts_total",
		"Points inserted through delta batches.").Add(float64(inserts))
	m.reg.CounterM("skycube_delta_member_inserts_total",
		"Inserted points that entered at least one subspace skyline.").Add(float64(members))
	m.reg.CounterM("skycube_delta_deletes_total",
		"Points deleted through delta batches.").Add(float64(deletes))
	m.reg.CounterM("skycube_delta_recomputed_cuboids_total",
		"Cuboids a delete batch re-derived because a deleted point was a skyline member there.").Add(float64(recomputed))
	m.reg.CounterM("skycube_delta_promoted_outsiders_total",
		"Outsiders a delete batch turned loose because no surviving full-space skyline member strictly dominates them.").Add(float64(promoted))
	m.reg.HistogramM("skycube_delta_apply_seconds",
		"Wall time to apply one delta batch.", nil).Observe(dur.Seconds())
}

// Epoch exposes the snapshot just published: its epoch number, live point
// count and overlay size (the compaction trigger's numerator).
func (m *DeltaMetrics) Epoch(epoch uint64, live, overlay int) {
	if m == nil {
		return
	}
	m.reg.GaugeM("skycube_delta_epoch",
		"Epoch of the current MVCC snapshot.").Set(float64(epoch))
	m.reg.GaugeM("skycube_delta_live_points",
		"Live points in the current snapshot.").Set(float64(live))
	m.reg.GaugeM("skycube_delta_overlay_entries",
		"Overlay entries (tombstones and masks) above the base cube.").Set(float64(overlay))
}

// Compaction records one completed compaction: the full-rebuild wall time
// and the size of the new base.
func (m *DeltaMetrics) Compaction(dur time.Duration, basePoints int) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_delta_compactions_total",
		"Background/forced compactions (full rebuilds folding the overlay into a new base).").Inc()
	m.reg.HistogramM("skycube_delta_compaction_seconds",
		"Wall time of one compaction rebuild.", nil).Observe(dur.Seconds())
	m.reg.GaugeM("skycube_delta_base_points",
		"Live points in the base cube produced by the latest compaction.").Set(float64(basePoints))
}
