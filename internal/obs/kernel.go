package obs

import "sync"

// KernelMetrics exports the process-wide dominance-kernel counters
// (internal/dom.KernelStats) as Prometheus families. The kernels themselves
// only bump cheap process atomics — this bundle converts their cumulative
// values into counter families at scrape time via Sync, so the hot loops
// never touch the registry. A nil *KernelMetrics is valid and records
// nothing, like the other bundles.
type KernelMetrics struct {
	reg *Registry

	mu            sync.Mutex
	sweeps, stops uint64 // last synced cumulative values
}

// NewKernelMetrics wires kernel metrics into reg; a nil registry yields a
// nil (no-op) bundle.
func NewKernelMetrics(reg *Registry) *KernelMetrics {
	if reg == nil {
		return nil
	}
	return &KernelMetrics{reg: reg}
}

// Sync folds the current cumulative kernel counters into the registry,
// adding only the growth since the previous Sync. Callers pass the raw
// values (this package cannot import internal/dom — dom sits below obs in
// the dependency order) — typically dom.KernelStats() at /metrics scrape
// time, with the name of the sweep implementation for the info gauge.
func (m *KernelMetrics) Sync(impl string, sweeps, stops uint64) {
	if m == nil {
		return
	}
	m.reg.GaugeM("skycube_kernel_impl",
		"Implementation of the word sweeps — dominance blocks and MDMC label columns — this process runs (avx2 or go); always 1.",
		"impl", impl).Set(1)
	m.mu.Lock()
	dSweeps := sweeps - m.sweeps
	dStops := stops - m.stops
	m.sweeps, m.stops = sweeps, stops
	m.mu.Unlock()
	if dSweeps > 0 {
		m.reg.CounterM("skycube_kernel_block_sweeps_total",
			"64-lane word sweeps executed: dominance blocks and MDMC label columns.").
			Add(float64(dSweeps))
	}
	if dStops > 0 {
		m.reg.CounterM("skycube_kernel_stop_point_exits_total",
			"Block scans terminated early by a sorted stop point.").
			Add(float64(dStops))
	}
}
