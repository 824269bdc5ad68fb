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

	"skycube/internal/gpusim"
	"skycube/internal/hashcube"
	"skycube/internal/hetero"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/qskycube"
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
	// GPUs lists modelled cards to use. SDSC and MDMC run over one list of
	// devices, built from GPUs and CPUAlso:
	//   - nil: the CPU as one device with all threads;
	//   - non-nil with CPUAlso false: the cards only;
	//   - non-nil with CPUAlso true: heterogeneous cross-device execution.
	// A lone card is named after its model ("GTX980"); in a longer list each
	// card is numbered within its model ("GTX980-1"). STSC, QSkycube and
	// PQSkycube are CPU-only (the paper: STSC cannot be specialised for the
	// GPU).
	GPUs []GPUModel
	// CPUAlso adds the CPU (as two socket devices, "CPU0" and "CPU1") to a
	// GPU run.
	CPUAlso bool
	// SDSCHook selects the parallel skyline algorithm the SDSC template
	// hooks in (§4.2.2's pluggability). The zero value picks the paper's
	// choices: Hybrid on the CPU, the SkyAlign-style kernel on the GPU. A
	// hook runs only if every device of the run can run it; otherwise
	// Build fails.
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

// SchedCounters total the scheduling events of one MDMC build.
type SchedCounters = hetero.SchedCounters

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
	// (GPU-only SDSC runs, on one card or several).
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

// DeviceShare reports one device's fraction of the parallel tasks of an
// SDSC or MDMC run (paper Fig. 12).
type DeviceShare = hetero.DeviceShare

// Stats describe a Build run.
type Stats struct {
	// Elapsed is the wall-clock construction time, measured from after the
	// dataset is resident to the completed skycube (the paper's timing
	// convention, §7.1).
	Elapsed time.Duration
	// Shares lists per-device task counts (cuboids for SDSC, point tasks
	// for MDMC) of SDSC and MDMC runs, one per device that took work: a
	// one-device run reports one share. Other algorithms report none.
	Shares []DeviceShare
	// GPUModelSeconds is the device cost model's estimate of GPU time, per
	// card in the order of GPUs, for GPU runs.
	GPUModelSeconds []float64
	// Sched totals the scheduler's chunk retunes for MDMC runs, on one
	// device or several (zero otherwise).
	Sched SchedCounters
}

// Build materialises the skycube of ds.
func Build(ds *Dataset, opt Options) (Skycube, Stats, error) {
	if ds == nil || ds.ds.N == 0 {
		return nil, Stats{}, fmt.Errorf("skycube: empty dataset")
	}
	if len(opt.GPUs) > 0 && opt.Algorithm != SDSC && opt.Algorithm != MDMC {
		// §6.1: STSC has no single-threaded GPU algorithm to hook in, and
		// the baselines are CPU algorithms.
		return nil, Stats{}, fmt.Errorf("skycube: %v is CPU-only", opt.Algorithm)
	}
	threads := opt.threads()
	devices := opt.devices(threads)
	if opt.Algorithm == SDSC {
		if err := setSDSCHook(devices, opt.SDSCHook); err != nil {
			return nil, Stats{}, err
		}
	}
	d := ds.ds.Dims
	tr := opt.Trace
	onCuboid, onChunk := progressHooks(opt, d)
	hopt := hetero.Options{Threads: threads, MaxLevel: opt.MaxLevel, Trace: tr,
		Metrics: obs.NewSchedMetrics(opt.Metrics), OnCuboid: onCuboid, OnChunk: onChunk}

	start := time.Now()
	bh := tr.Begin("build", obs.CatBuild, opt.Algorithm.String())
	bh.SetN(int64(ds.ds.N))
	var cube Skycube
	var stats Stats
	switch opt.Algorithm {
	case QSkycube, PQSkycube:
		workers := threads
		if opt.Algorithm == QSkycube {
			workers = 1
		}
		cube = latticeCube{qskycube.Build(ds.ds, qskycube.Options{Threads: workers, MaxLevel: opt.MaxLevel,
			Trace: tr, OnCuboid: onCuboid})}
	case STSC:
		cube = latticeCube{templates.STSC(ds.ds, templates.Options{Threads: threads, MaxLevel: opt.MaxLevel,
			Trace: tr, OnCuboid: onCuboid})}
	case SDSC:
		l, shares := hetero.SDSC(ds.ds, devices, hopt)
		cube, stats.Shares = latticeCube{l}, shares.Fractions()
	case MDMC:
		res, shares, sched := hetero.MDMC(ds.ds, devices, hopt)
		cube = hashCubeView{h: res.Cube, d: d, maxLevel: effectiveLevel(opt.MaxLevel, d)}
		stats.Shares, stats.Sched = shares.Fractions(), sched
	default:
		return nil, Stats{}, fmt.Errorf("skycube: unknown algorithm %d", opt.Algorithm)
	}
	stats.GPUModelSeconds = gpuModelSeconds(opt.Metrics, devices)
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
			"Parallel tasks completed per device in SDSC and MDMC runs.",
			"device", s.Name).Add(float64(s.Tasks))
		reg.GaugeM("skycube_device_share_fraction",
			"Fraction of the parallel tasks the device took in the latest SDSC or MDMC run.",
			"device", s.Name).Set(s.Fraction)
	}
}

// gpuModelSeconds returns the cost model's estimate of each card's time, in
// list order, and records each card's counters.
func gpuModelSeconds(reg *Metrics, devices []hetero.Device) []float64 {
	var secs []float64
	for _, dev := range devices {
		g, ok := dev.(*hetero.GPUDevice)
		if !ok {
			continue
		}
		st := g.Stats.Total()
		secs = append(secs, g.Dev.ModelSeconds(st))
		if reg == nil {
			continue
		}
		name := g.Name()
		reg.CounterM("skycube_gpu_instructions_total",
			"Modelled GPU instructions executed.", "device", name).Add(float64(st.Instructions))
		reg.CounterM("skycube_gpu_transactions_total",
			"Modelled GPU memory transactions.", "device", name).Add(float64(st.Transactions))
		reg.CounterM("skycube_gpu_transfer_bytes_total",
			"Modelled host↔device transfer bytes.", "device", name).Add(float64(st.TransferBytes))
		reg.GaugeM("skycube_gpu_model_seconds",
			"Cost model's GPU-time estimate for the latest build.", "device", name).Set(secs[len(secs)-1])
	}
	return secs
}

// devices is the device list of an SDSC or MDMC run (hetero.Devices): the
// CPU alone without GPUs; otherwise the cards, after the CPU's two sockets
// when CPUAlso.
func (o Options) devices(threads int) []hetero.Device {
	cards := make([]*gpusim.Device, len(o.GPUs))
	for i, m := range o.GPUs {
		cards[i] = m.device()
	}
	return hetero.Devices(threads, o.CPUAlso, cards...)
}

// setSDSCHook sets hook on every device of an SDSC run, or fails if one
// cannot run it: PSkyline runs only on CPUs, GGS only on cards.
func setSDSCHook(devices []hetero.Device, hook SDSCHook) error {
	for _, dev := range devices {
		ok := hook == HookDefault
		switch dev := dev.(type) {
		case *hetero.CPUDevice:
			dev.PSkyline = hook == HookPSkyline
			ok = ok || dev.PSkyline
		case *hetero.GPUDevice:
			dev.GGS = hook == HookGGS
			ok = ok || dev.GGS
		}
		if !ok {
			return fmt.Errorf("skycube: SDSC hook %d cannot run on device %s", hook, dev.Name())
		}
	}
	return nil
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
