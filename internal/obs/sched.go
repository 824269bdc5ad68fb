package obs

// SchedMetrics bundles the metric families of the cross-device scheduler
// (internal/hetero): the retune counter plus the live chunk-size and
// throughput gauges each device's grab size is tuned by. A nil
// *SchedMetrics is valid everywhere and records nothing, mirroring the
// nil-trace fast path, so the scheduler hot loop pays one pointer test per
// event when metrics are off.
type SchedMetrics struct {
	reg *Registry
}

// NewSchedMetrics wires scheduler metrics into reg; a nil registry yields a
// nil (no-op) bundle.
func NewSchedMetrics(reg *Registry) *SchedMetrics {
	if reg == nil {
		return nil
	}
	return &SchedMetrics{reg: reg}
}

// Retune records a chunk-size adjustment and exposes the new size.
func (m *SchedMetrics) Retune(device string, chunk int) {
	if m == nil {
		return
	}
	m.reg.CounterM("skycube_sched_retunes_total",
		"Chunk-size retunes driven by the per-device throughput EWMA.",
		"device", device).Inc()
	m.reg.GaugeM("skycube_sched_chunk_size",
		"Current auto-tuned grab size of the device.",
		"device", device).Set(float64(chunk))
}

// Rate exposes the device's current EWMA throughput in tasks per second.
func (m *SchedMetrics) Rate(device string, perSec float64) {
	if m == nil {
		return
	}
	m.reg.GaugeM("skycube_sched_task_rate",
		"EWMA point-task throughput of the device (tasks/s).",
		"device", device).Set(perSec)
}
