// Package skycube computes skycubes — the materialisation of the skyline
// query result in every non-empty subspace of a multidimensional dataset —
// with the template algorithms of Bøgh, Chester, Šidlauskas and Assent,
// "Template Skycube Algorithms for Heterogeneous Parallelism on Multicore
// and GPU Architectures" (SIGMOD 2017).
//
// Three parallel templates are provided, plus the sequential QSkycube
// state-of-the-art baseline and its direct parallelisation:
//
//   - STSC computes whole cuboids concurrently, one thread each;
//   - SDSC computes cuboids one at a time with a parallel skyline
//     algorithm, optionally spread across devices;
//   - MDMC processes one point per parallel task, computing the point's
//     subspace-membership bitmask over a shared static tree, and stores
//     the result in a compressed HashCube.
//
// GPUs are modelled by a software device (see internal/gpusim): kernels
// execute for real on the host under the device's occupancy, warp and
// coalescing constraints, and cross-device runs dynamically balance work
// between the CPU and any number of modelled cards.
//
// Quick start:
//
//	ds := skycube.GenerateSynthetic(skycube.Independent, 100_000, 8, 42)
//	cube, stats, err := skycube.Build(ds, skycube.Options{
//		Algorithm: skycube.MDMC,
//		Threads:   runtime.NumCPU(),
//	})
//	if err != nil { ... }
//	top := cube.Skyline(skycube.FullSpace(ds.Dims()))
//	_ = stats
package skycube

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"skycube/internal/gpu"
	"skycube/internal/gpusim"
	"skycube/internal/hashcube"
	"skycube/internal/hetero"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/qskycube"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

// Subspace identifies a non-empty subspace as a bitmask: bit i set means
// dimension i participates. Valid values are 1 … 2^d − 1.
type Subspace = uint32

// FullSpace returns the subspace containing all d dimensions.
func FullSpace(d int) Subspace { return mask.Full(d) }

// SubspaceOf returns the subspace containing exactly the given dimensions.
func SubspaceOf(dims ...int) Subspace {
	var s Subspace
	for _, d := range dims {
		s |= mask.Bit(d)
	}
	return s
}

// SubspaceDims returns the dimensions of a subspace in ascending order.
func SubspaceDims(s Subspace) []int { return mask.Dims(s) }

// SubspaceSize returns |δ|, the number of participating dimensions.
func SubspaceSize(s Subspace) int { return mask.Count(s) }

// AllSubspaces enumerates every non-empty subspace of a d-dimensional
// space in ascending numeric order.
func AllSubspaces(d int) []Subspace { return mask.Subspaces(d) }

// Algorithm selects a skycube construction algorithm.
type Algorithm int

const (
	// MDMC is the point-bitmask template (§4.3) — the paper's fastest
	// algorithm on most workloads, and the default.
	MDMC Algorithm = iota
	// STSC is the single-thread-single-cuboid template (§4.2.1).
	STSC
	// SDSC is the single-device-single-cuboid template (§4.2.2).
	SDSC
	// PQSkycube is the parallelised state-of-the-art baseline (§7.1).
	PQSkycube
	// QSkycube is the sequential state of the art (Lee & Hwang).
	QSkycube
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case MDMC:
		return "MDMC"
	case STSC:
		return "STSC"
	case SDSC:
		return "SDSC"
	case PQSkycube:
		return "PQSkycube"
	case QSkycube:
		return "QSkycube"
	}
	return "?"
}

// GPUModel names a modelled GPU card.
type GPUModel int

const (
	// GTX980 models the paper's primary card.
	GTX980 GPUModel = iota
	// GTXTitan models the older-generation card of the cross-device setup.
	GTXTitan
)

func (m GPUModel) device() *gpusim.Device {
	if m == GTXTitan {
		return gpusim.GTXTitan()
	}
	return gpusim.GTX980()
}

// Options configure Build.
type Options struct {
	// Algorithm defaults to MDMC.
	Algorithm Algorithm
	// Threads is the CPU worker count; 0 means runtime.NumCPU().
	Threads int
	// MaxLevel restricts materialisation to subspaces with at most this
	// many dimensions (partial skycubes, paper App. A.2); 0 = full skycube.
	MaxLevel int
	// GPUs lists modelled cards to use. For SDSC and MDMC:
	//   - nil: CPU only;
	//   - non-nil with CPUAlso false: GPU(s) only;
	//   - non-nil with CPUAlso true: heterogeneous cross-device execution.
	// STSC, QSkycube and PQSkycube are CPU-only (the paper: STSC cannot be
	// specialised for the GPU).
	GPUs []GPUModel
	// CPUAlso adds the CPU (as two socket devices) to a GPU run.
	CPUAlso bool
	// SDSCHook selects the parallel skyline algorithm the SDSC template
	// hooks in (§4.2.2's pluggability). The zero value picks the paper's
	// choices: Hybrid on the CPU, the SkyAlign-style kernel on the GPU.
	SDSCHook SDSCHook
	// Trace, if non-nil, records typed spans of the build (build → level →
	// cuboid, MDMC prologue phases and per-device chunk grabs). Export with
	// Trace.WriteChrome. Nil adds only a pointer test to the hot paths.
	Trace *Trace
	// Metrics, if non-nil, receives build counters, per-device task totals
	// and the modelled GPU counters. Serialise with Metrics.WritePrometheus
	// or serve it via internal/server's GET /metrics.
	Metrics *Metrics
	// Progress, if non-nil, is called as the build advances: once per
	// materialised cuboid (lattice algorithms) or completed point chunk
	// (MDMC). Must be cheap and safe for concurrent calls.
	Progress ProgressFunc
	// Scheduling tunes the adaptive work-stealing scheduler of cross-device
	// runs. The zero value enables stealing, chunk auto-tuning and SDSC's
	// cost-ordered cuboid assignment with the default knobs.
	Scheduling Scheduling
	// Delta tunes incremental maintenance (NewUpdater): snapshot history
	// depth and the background-compaction trigger. Ignored by Build.
	Delta DeltaOptions
	// Durable persists incremental maintenance (NewUpdater) to disk: a
	// write-ahead log of every accepted mutation plus epoch-snapshot
	// checkpoints under Durable.Dir, with crash recovery on startup. The
	// zero value (no Dir) keeps the updater purely in-memory. Ignored by
	// Build.
	Durable DurableOptions
}

// Scheduling configures the adaptive cross-device scheduler (the zero value
// is the recommended default). Cross-device MDMC feeds per-device queues
// from a global grab counter, auto-tunes each device's chunk size from its
// measured throughput, and lets idle devices steal half the remaining range
// of the most loaded queue; cross-device SDSC hands out each lattice
// level's cuboids cost-ordered largest-first.
type Scheduling struct {
	// DisableStealing turns off work stealing between device queues.
	DisableStealing bool
	// DisableRetune freezes chunk sizes at each device's hint instead of
	// auto-tuning them from the throughput EWMA.
	DisableRetune bool
	// DisableCostOrder keeps SDSC's within-level cuboid order numeric
	// instead of largest-first.
	DisableCostOrder bool
	// Prepartition statically splits the MDMC task range equally across the
	// devices up front (the textbook static schedule; with DisableStealing
	// it is the baseline of the imbalance experiment).
	Prepartition bool
}

// SchedCounters total the scheduling events of one cross-device build.
type SchedCounters = hetero.SchedCounters

func (s Scheduling) tuning(reg *Metrics) hetero.Tuning {
	return hetero.Tuning{
		DisableStealing:  s.DisableStealing,
		DisableRetune:    s.DisableRetune,
		DisableCostOrder: s.DisableCostOrder,
		Prepartition:     s.Prepartition,
		Metrics:          obs.NewSchedMetrics(reg),
	}
}

// SDSCHook names a parallel skyline algorithm for the SDSC template.
type SDSCHook int

const (
	// HookDefault is Hybrid on the CPU and the SkyAlign-style kernel on
	// the GPU — the paper's specialisations.
	HookDefault SDSCHook = iota
	// HookPSkyline is the naive divide-and-conquer multicore baseline
	// (CPU-only SDSC runs).
	HookPSkyline
	// HookGGS is the sort-based, throughput-oriented GPU baseline
	// (single-GPU SDSC runs).
	HookGGS
)

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.NumCPU()
}

// Skycube is a materialised skycube under either representation.
type Skycube interface {
	// Dims returns the data dimensionality d.
	Dims() int
	// Skyline returns the ids of the points in S_δ, ascending. For a
	// partial skycube, subspaces above MaxLevel return nil.
	Skyline(delta Subspace) []int32
	// MaxLevel returns the materialised level bound (== Dims for a full
	// skycube).
	MaxLevel() int
	// IDCount returns the total number of stored point ids — the
	// representation's space measure.
	IDCount() int
	// Membership returns the subspaces in which point id is a skyline
	// member, ascending — the inverse query of Skyline. For partial
	// skycubes only subspaces within MaxLevel are reported.
	Membership(id int32) []Subspace
}

// DeviceShare reports one device's fraction of the parallel tasks in a
// cross-device run (paper Fig. 12).
type DeviceShare = hetero.DeviceShare

// Stats describe a Build run.
type Stats struct {
	// Elapsed is the wall-clock construction time, measured from after the
	// dataset is resident to the completed skycube (the paper's timing
	// convention, §7.1).
	Elapsed time.Duration
	// Shares lists per-device task counts for cross-device runs.
	Shares []DeviceShare
	// GPUModelSeconds is the device cost model's estimate of GPU time, per
	// card, for GPU runs.
	GPUModelSeconds []float64
	// Sched totals the work-stealing scheduler's events for cross-device
	// MDMC runs (zero otherwise).
	Sched SchedCounters
}

// Build materialises the skycube of ds.
func Build(ds *Dataset, opt Options) (Skycube, Stats, error) {
	if ds == nil || ds.ds.N == 0 {
		return nil, Stats{}, fmt.Errorf("skycube: empty dataset")
	}
	threads := opt.threads()
	d := ds.ds.Dims
	tr := opt.Trace
	onCuboid, onChunk := progressHooks(opt, d)

	start := time.Now()
	bh := tr.Begin("build", obs.CatBuild, opt.Algorithm.String())
	bh.SetN(int64(ds.ds.N))
	var cube Skycube
	var stats Stats

	useGPU := len(opt.GPUs) > 0
	switch opt.Algorithm {
	case QSkycube:
		if useGPU {
			return nil, Stats{}, fmt.Errorf("skycube: QSkycube is CPU-only")
		}
		cube = latticeCube{qskycube.Build(ds.ds, qskycube.Options{Threads: 1, MaxLevel: opt.MaxLevel,
			Trace: tr, OnCuboid: onCuboid})}
	case PQSkycube:
		if useGPU {
			return nil, Stats{}, fmt.Errorf("skycube: PQSkycube is CPU-only")
		}
		cube = latticeCube{qskycube.Build(ds.ds, qskycube.Options{Threads: threads, MaxLevel: opt.MaxLevel,
			Trace: tr, OnCuboid: onCuboid})}
	case STSC:
		if useGPU {
			// §6.1: there is no single-threaded GPU algorithm to hook in.
			return nil, Stats{}, fmt.Errorf("skycube: STSC cannot be specialised for the GPU")
		}
		cube = latticeCube{templates.STSC(ds.ds, templates.Options{Threads: threads, MaxLevel: opt.MaxLevel,
			Trace: tr, OnCuboid: onCuboid})}
	case SDSC:
		switch {
		case !useGPU:
			topt := templates.Options{Threads: threads, MaxLevel: opt.MaxLevel, Trace: tr, OnCuboid: onCuboid}
			switch opt.SDSCHook {
			case HookDefault:
				cube = latticeCube{templates.SDSC(ds.ds, topt)}
			case HookPSkyline:
				cube = latticeCube{templates.SDSCWith(ds.ds, skyline.AlgoPSkyline, topt)}
			default:
				return nil, Stats{}, fmt.Errorf("skycube: hook %d is not a CPU SDSC hook", opt.SDSCHook)
			}
		case !opt.CPUAlso && len(opt.GPUs) == 1:
			collector := &gpu.StatsCollector{}
			dev := opt.GPUs[0].device()
			switch opt.SDSCHook {
			case HookDefault:
				cube = latticeCube{gpu.SDSCTraced(ds.ds, dev, opt.MaxLevel, collector, tr, onCuboid)}
			case HookGGS:
				cube = latticeCube{gpu.SDSCWithGGSTraced(ds.ds, dev, opt.MaxLevel, collector, tr, onCuboid)}
			default:
				return nil, Stats{}, fmt.Errorf("skycube: hook %d is not a GPU SDSC hook", opt.SDSCHook)
			}
			stats.GPUModelSeconds = []float64{dev.ModelSeconds(collector.Total())}
			exportGPUMetrics(opt.Metrics, dev.Name, collector, stats.GPUModelSeconds[0])
		default:
			devices, collectors := buildDevices(opt, threads)
			l, shares := hetero.SDSCAllSched(ds.ds, devices, opt.MaxLevel, opt.Scheduling.tuning(opt.Metrics), tr, onCuboid)
			cube = latticeCube{l}
			stats.Shares = shares.Fractions()
			stats.GPUModelSeconds = modelSeconds(opt, collectors)
			exportHeteroGPUMetrics(opt.Metrics, devices, collectors, stats.GPUModelSeconds)
		}
	case MDMC:
		switch {
		case !useGPU:
			mopt := templates.MDMCOptions{
				Options: templates.Options{Threads: threads, MaxLevel: opt.MaxLevel},
			}
			ctx := templates.PrepareMDMCTraced(ds.ds, threads, 0, opt.MaxLevel, tr)
			total := ctx.NumTasks()
			var chunk func(n int)
			if onChunk != nil {
				chunk = func(n int) { onChunk(n, total) }
			}
			templates.RunMDMCTraced(ctx, templates.CPUPointKernel(mopt), threads, tr, chunk)
			cube = hashCubeView{h: ctx.Cube, d: d, maxLevel: effectiveLevel(opt.MaxLevel, d)}
		case !opt.CPUAlso && len(opt.GPUs) == 1:
			collector := &gpu.StatsCollector{}
			dev := opt.GPUs[0].device()
			res := gpu.MDMCTraced(ds.ds, dev, threads, opt.MaxLevel, collector, tr)
			cube = hashCubeView{h: res.Cube, d: d, maxLevel: effectiveLevel(opt.MaxLevel, d)}
			stats.GPUModelSeconds = []float64{dev.ModelSeconds(collector.Total())}
			exportGPUMetrics(opt.Metrics, dev.Name, collector, stats.GPUModelSeconds[0])
			if onChunk != nil {
				onChunk(len(res.ExtRows), len(res.ExtRows))
			}
		default:
			devices, collectors := buildDevices(opt, threads)
			res, shares, sched := hetero.MDMCAllSched(ds.ds, devices, threads, opt.MaxLevel,
				opt.Scheduling.tuning(opt.Metrics), tr, onChunk)
			stats.Sched = sched
			cube = hashCubeView{h: res.Cube, d: d, maxLevel: effectiveLevel(opt.MaxLevel, d)}
			stats.Shares = shares.Fractions()
			stats.GPUModelSeconds = modelSeconds(opt, collectors)
			exportHeteroGPUMetrics(opt.Metrics, devices, collectors, stats.GPUModelSeconds)
		}
	default:
		return nil, Stats{}, fmt.Errorf("skycube: unknown algorithm %d", opt.Algorithm)
	}
	stats.Elapsed = time.Since(start)
	bh.End()
	exportBuildMetrics(opt.Metrics, opt.Algorithm, stats)
	return cube, stats, nil
}

// progressHooks builds the per-cuboid and per-chunk callbacks that feed
// Options.Progress and Options.Metrics. Both returned hooks are nil when
// neither sink is configured, so the builders skip them entirely.
func progressHooks(opt Options, d int) (func(delta mask.Mask), func(n, total int)) {
	if opt.Progress == nil && opt.Metrics == nil {
		return nil, nil
	}
	algo := opt.Algorithm.String()
	var cuboidCounter *obs.Counter
	var pointCounter *obs.Counter
	if opt.Metrics != nil {
		cuboidCounter = opt.Metrics.CounterM("skycube_cuboids_total",
			"Cuboids materialised by Build.", "algorithm", algo)
		pointCounter = opt.Metrics.CounterM("skycube_points_total",
			"MDMC point tasks completed by Build.", "algorithm", algo)
	}
	totalCuboids := materialisedCuboids(d, opt.MaxLevel)
	var cuboidsDone, pointsDone atomic.Int64
	onCuboid := func(delta mask.Mask) {
		done := cuboidsDone.Add(1)
		if cuboidCounter != nil {
			cuboidCounter.Inc()
		}
		if opt.Progress != nil {
			opt.Progress(Progress{
				Algorithm:    opt.Algorithm,
				Level:        mask.Count(delta),
				CuboidsDone:  int(done),
				TotalCuboids: totalCuboids,
			})
		}
	}
	onChunk := func(n, total int) {
		done := pointsDone.Add(int64(n))
		if pointCounter != nil {
			pointCounter.Add(float64(n))
		}
		if opt.Progress != nil {
			opt.Progress(Progress{
				Algorithm:   opt.Algorithm,
				PointsDone:  int(done),
				TotalPoints: total,
			})
		}
	}
	return onCuboid, onChunk
}

// materialisedCuboids counts the non-empty subspaces a build with the given
// level bound materialises: sum of C(d, l) for l = 1 … maxLevel.
func materialisedCuboids(d, maxLevel int) int {
	if maxLevel <= 0 || maxLevel >= d {
		return mask.NumSubspaces(d)
	}
	total := 0
	for l := 1; l <= maxLevel; l++ {
		total += mask.Binomial(d, l)
	}
	return total
}

// exportBuildMetrics records the whole-build counters once the run is done.
func exportBuildMetrics(reg *Metrics, algo Algorithm, stats Stats) {
	if reg == nil {
		return
	}
	name := algo.String()
	reg.CounterM("skycube_builds_total", "Completed Build calls.", "algorithm", name).Inc()
	reg.HistogramM("skycube_build_seconds", "Wall-clock build time.", nil,
		"algorithm", name).Observe(stats.Elapsed.Seconds())
	for _, s := range stats.Shares {
		reg.CounterM("skycube_device_tasks_total",
			"Parallel tasks completed per device in cross-device runs.",
			"device", s.Name).Add(float64(s.Tasks))
		reg.GaugeM("skycube_device_share_fraction",
			"Fraction of the parallel tasks the device took in the latest cross-device run.",
			"device", s.Name).Set(s.Fraction)
	}
}

// exportGPUMetrics records one modelled card's counters.
func exportGPUMetrics(reg *Metrics, device string, collector *gpu.StatsCollector, modelSec float64) {
	if reg == nil {
		return
	}
	st := collector.Total()
	reg.CounterM("skycube_gpu_instructions_total",
		"Modelled GPU instructions executed.", "device", device).Add(float64(st.Instructions))
	reg.CounterM("skycube_gpu_transactions_total",
		"Modelled GPU memory transactions.", "device", device).Add(float64(st.Transactions))
	reg.CounterM("skycube_gpu_transfer_bytes_total",
		"Modelled host↔device transfer bytes.", "device", device).Add(float64(st.TransferBytes))
	reg.GaugeM("skycube_gpu_model_seconds",
		"Cost model's GPU-time estimate for the latest build.", "device", device).Set(modelSec)
}

// exportHeteroGPUMetrics maps each collector back to its GPU device (the
// last len(collectors) entries of the device list) and exports its counters.
func exportHeteroGPUMetrics(reg *Metrics, devices []hetero.Device, collectors []*gpu.StatsCollector, modelSec []float64) {
	if reg == nil {
		return
	}
	base := len(devices) - len(collectors)
	for i, c := range collectors {
		exportGPUMetrics(reg, devices[base+i].Name(), c, modelSec[i])
	}
}

// buildDevices assembles the hetero device list: optionally two CPU socket
// devices, plus one device per requested GPU model.
func buildDevices(opt Options, threads int) ([]hetero.Device, []*gpu.StatsCollector) {
	var devices []hetero.Device
	if opt.CPUAlso {
		half := threads / 2
		if half < 1 {
			half = 1
		}
		rest := threads - half
		if rest < 1 {
			rest = 1
		}
		devices = append(devices,
			&hetero.CPUDevice{Threads: half, Label: "CPU0",
				MDMCOpt: templates.MDMCOptions{Options: templates.Options{MaxLevel: opt.MaxLevel}}},
			&hetero.CPUDevice{Threads: rest, Label: "CPU1",
				MDMCOpt: templates.MDMCOptions{Options: templates.Options{MaxLevel: opt.MaxLevel}}},
		)
	}
	collectors := make([]*gpu.StatsCollector, len(opt.GPUs))
	counts := map[GPUModel]int{}
	for i, m := range opt.GPUs {
		counts[m]++
		collectors[i] = &gpu.StatsCollector{}
		dev := m.device()
		devices = append(devices, &hetero.GPUDevice{
			Dev:   dev,
			Label: fmt.Sprintf("%s-%d", dev.Name, counts[m]),
			Stats: collectors[i],
		})
	}
	return devices, collectors
}

func modelSeconds(opt Options, collectors []*gpu.StatsCollector) []float64 {
	out := make([]float64, len(collectors))
	for i, c := range collectors {
		out[i] = opt.GPUs[i].device().ModelSeconds(c.Total())
	}
	return out
}

func effectiveLevel(maxLevel, d int) int {
	if maxLevel <= 0 || maxLevel > d {
		return d
	}
	return maxLevel
}

// latticeCube adapts the lattice representation to the Skycube interface.
type latticeCube struct {
	l *lattice.Lattice
}

func (c latticeCube) Dims() int { return c.l.D }

func (c latticeCube) Skyline(delta Subspace) []int32 {
	if delta == 0 || int(delta) >= 1<<uint(c.l.D) {
		return nil
	}
	return c.l.Skyline(delta)
}

func (c latticeCube) MaxLevel() int { return c.l.MaxLevel }

func (c latticeCube) Membership(id int32) []Subspace { return c.l.Membership(id) }

func (c latticeCube) IDCount() int { return c.l.IDCount() }

// hashCubeView adapts the HashCube representation.
type hashCubeView struct {
	h        *hashcube.HashCube
	d        int
	maxLevel int
}

func (c hashCubeView) Dims() int { return c.d }

func (c hashCubeView) Skyline(delta Subspace) []int32 {
	if delta == 0 || int(delta) >= 1<<uint(c.d) {
		return nil
	}
	if mask.Count(delta) > c.maxLevel {
		// Partial skycube: no correctness guarantee above MaxLevel (A.2).
		return nil
	}
	return c.h.Skyline(delta)
}

func (c hashCubeView) MaxLevel() int { return c.maxLevel }

func (c hashCubeView) Membership(id int32) []Subspace {
	all := c.h.Membership(id)
	if c.maxLevel >= c.d {
		return all
	}
	out := all[:0]
	for _, delta := range all {
		if mask.Count(delta) <= c.maxLevel {
			out = append(out, delta)
		}
	}
	return out
}

func (c hashCubeView) IDCount() int { return c.h.IDCount() }
