package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric the benchmark emits. The catalogue below is the
// code's side of BENCHMARK.json; smoke_test.go fails when the two differ.
// README.md says how each is measured and which end-to-end metric it should
// move.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them, from the untraced run: per metric the median of the cycles' samples,
// brought to the host's nominal speed (result.value, hostclock.go). README.md
// has the measurements behind both.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_mdmc_s", "s"},
	{"build_stsc_s", "s"},
	{"build_sdsc_s", "s"},
	{"build_pqskycube_s", "s"},
	{"build_qskycube_s", "s"},
	{"insert_per_s", "1/s"},
	{"delete_per_s", "1/s"},
	{"recovery_s", "s"},
	{"query_per_s", "1/s"},
	{"query_p50_ms", "ms"},
}

// perLayer comes from the traced run; the part of a name before the first
// dot is the layer (a module of the repository, or the benchmark itself).
var perLayer = []metricDef{
	{"dom.block_sweeps", "count"},
	{"dom.scalar_fallbacks", "count"},
	{"dom.stop_point_exits", "count"},
	{"dom.block_probe_ns", "ns"},
	{"dom.scalar_probe_ns", "ns"},
	{"dom.compare_block_ns_per_row", "ns"},

	{"skyline.extended_full_hybrid_s", "s"},
	{"skyline.extended_full_bskytree_s", "s"},
	{"skyline.cuboid_total_s", "s"},
	{"skyline.cuboid_calls", "count"},

	{"templates.mdmc_prepare_s", "s"},
	{"templates.mdmc_run_s", "s"},
	{"templates.mdmc_tasks", "count"},
	{"templates.mdmc_dts", "count"},
	{"templates.mdmc_leaf_skip_frac", "frac"},
	{"templates.mdmc_alloc_mb", "mb"},
	{"templates.stsc_self_s", "s"},
	{"templates.sdsc_self_s", "s"},
	{"stree.build_s", "s"},

	{"qskycube.alloc_mb", "mb"},
	{"lattice.ids", "count"},
	{"hashcube.ids", "count"},
	{"lattice.skyline_us", "us"},
	{"hashcube.skyline_us", "us"},

	{"hetero.mdmc_all_s", "s"},
	{"hetero.steals", "count"},
	{"hetero.gpu_share_frac", "frac"},
	{"gpusim.mdmc_model_s", "s"},
	{"gpusim.transactions", "count"},

	{"delta.insert_per_s_b100", "1/s"},
	{"delta.insert_per_s_b1000", "1/s"},
	{"delta.flush_b100_ms", "ms"},
	{"delta.flush_b1000_ms", "ms"},
	{"delta.flush_max_ms", "ms"},
	{"delta.flush_alloc_mb_b1000", "mb"},
	{"delta.delete_ms", "ms"},
	{"delta.recomputed_cuboids", "count"},
	{"delta.compact_s", "s"},
	{"delta.compactions", "count"},
	{"delta.overlay_end", "count"},

	{"wal.bytes_per_insert", "bytes"},
	{"wal.fsyncs", "count"},
	{"wal.commit_us", "us"},
	{"wal.checkpoint_s", "s"},
	{"wal.snapshot_bytes", "bytes"},
	{"wal.open_s", "s"},
	{"wal.replay_s", "s"},
	{"wal.replayed_records", "count"},

	{"server.hot_us", "us"},
	{"server.cold_us", "us"},
	{"server.insert_ms", "ms"},
	{"rcache.hit_frac_coordinator", "frac"},
	{"rcache.hit_frac_shard", "frac"},

	{"cluster.cold_gather_ms", "ms"},
	{"cluster.cold_gather_pruned_ms", "ms"},
	{"cluster.shard_cuboid_ms", "ms"},
	{"cluster.coord_self_ms", "ms"},
	{"cluster.round_trips_per_query", "count"},
	{"cluster.bytes_per_query", "bytes"},
	{"cluster.candidates_per_query", "count"},
	{"cluster.kept_per_query", "count"},
	{"cluster.allocs_per_cold_query", "count"},
	{"cluster.open_p99_ms", "ms"},
	{"cluster.open_over_25ms_frac", "frac"},

	{"benchmark.max_late_ms", "ms"},
	{"benchmark.ref_kernel_ms", "ms"},
	{"benchmark.trace_overhead_frac", "frac"},
}

// exactCounts repeat bit-for-bit between runs of the same seed: they are
// counts the program makes of work whose amount the inputs alone decide.
// The A/A tool fails when one differs.
var exactCounts = []string{
	"dom.block_sweeps", "templates.mdmc_dts", "gpusim.mdmc_model_s",
	"hashcube.ids", "lattice.ids", "wal.replayed_records",
}

// metricSet collects a run's samples: per metric one or a few per cycle, or
// one from a probe that runs once.
type metricSet map[string][]float64

func (m metricSet) add(name string, v float64) { m[name] = append(m[name], v) }

// value is what the run reports for a metric: the median of its samples (0
// when it has none).
func (m metricSet) value(name string) float64 { return median(m[name]) }

// complete checks that the run produced exactly the metrics of defs, each a
// finite number.
func (m metricSet) complete(defs []metricDef) error {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
		if len(m[d.name]) == 0 {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if v := m.value(d.name); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
	}
	for name := range m {
		if !known[name] {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation (0 for an
// empty sample).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
