// Package hetero composes the template specialisations across devices — the
// paper's cross-device parallelism (§1, §4.1): one dual-socket CPU and any
// number of modelled GPUs cooperating on a single skycube, sharing the
// read-only template structures and pulling parallel tasks from a common
// queue.
//
// For SDSC the unit of work is a cuboid: with k devices, k cuboids of a
// lattice level run concurrently, each computed by that device's parallel
// skyline algorithm (§4.2.2). For MDMC the unit is a chunk of point tasks
// (§4.3). Task pulling is dynamic, so the work distribution adapts to each
// device's actual throughput — the property Figure 12 measures.
package hetero

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"skycube/internal/data"
	"skycube/internal/gpu"
	"skycube/internal/gpusim"
	"skycube/internal/lattice"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
	"skycube/internal/templates"
)

// Grab hands out the next chunk of point tasks for a worker lane, returning
// lo == hi when the queue is exhausted. It is the template's grab protocol
// (see internal/templates): the scheduler — not the device — decides the
// chunk size, so sizes can adapt to each device's measured throughput.
type Grab = templates.Grab

// AccountFunc reports one completed chunk of n point tasks that took dur
// on the device's lane (a CPU worker index, or 0 for a single-puller GPU).
// The duration lets the scheduler back-date a trace span for the chunk, so
// cross-device runs yield a Figure-12-style per-device work timeline, and
// feeds the throughput EWMA that auto-tunes the device's chunk size.
type AccountFunc func(lane, n int, dur time.Duration)

// Device is one compute unit participating in a cross-device run.
type Device interface {
	// Name identifies the device in work-share reports.
	Name() string
	// Cuboid computes one SDSC task: S_δ and S⁺_δ\S_δ over rows of ds.
	Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32)
	// RunPoints consumes MDMC point chunks via grab until exhaustion,
	// reporting each completed chunk (with its wall time) to account.
	RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc)
	// ChunkHint is the device's preferred grab size for dimensionality d —
	// the scheduler's starting point before throughput observations arrive
	// (a cache-friendly 64 on the CPU, the resident-block count on a GPU).
	ChunkHint(d int) int
	// SpeedHint is a relative throughput estimate used to pick steal
	// victims before any chunk of the device has completed. Only compared
	// between devices; never mixed with measured rates.
	SpeedHint() float64
}

// CPUDevice is the multicore CPU as a device: Hybrid for cuboids, the §5.2
// kernel for points.
type CPUDevice struct {
	// Threads is the core count the device may use.
	Threads int
	// Label overrides the default name (e.g. "CPU0"/"CPU1" to present two
	// sockets as separate devices, as Figure 12 does).
	Label string
	// MDMC options for the point kernel (ablations, partial computation).
	MDMCOpt templates.MDMCOptions
}

// Name implements Device.
func (c *CPUDevice) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "CPU"
}

func (c *CPUDevice) threads() int {
	if c.Threads < 1 {
		return 1
	}
	return c.Threads
}

// Cuboid implements Device with the Hybrid multicore skyline.
func (c *CPUDevice) Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
	res := skyline.Compute(ds, rows, delta, skyline.AlgoHybrid, c.threads())
	return res.Skyline, res.ExtOnly
}

// cpuPointChunk is the CPU's preferred grab size per worker.
const cpuPointChunk = 64

// RunPoints implements Device: every core is an independent puller lane on
// the shared grab source.
func (c *CPUDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	templates.RunMDMCGrab(ctx, templates.CPUPointKernel(c.MDMCOpt), c.threads(), grab, account)
}

// ChunkHint implements Device: the §5.2 kernel's cache-friendly chunk.
func (c *CPUDevice) ChunkHint(int) int { return cpuPointChunk }

// SpeedHint implements Device: relative speed scales with the core count.
func (c *CPUDevice) SpeedHint() float64 { return 8 * float64(c.threads()) }

// GPUDevice wraps one modelled GPU.
type GPUDevice struct {
	Dev *gpusim.Device
	// Label disambiguates same-model cards ("980-1", "980-2").
	Label string
	// Stats, if non-nil, accumulates the device's modelled counters.
	Stats *gpu.StatsCollector
}

// Name implements Device.
func (g *GPUDevice) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return g.Dev.Name
}

// Cuboid implements Device with the SkyAlign-style device kernel.
func (g *GPUDevice) Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
	res := gpu.Compute(g.Dev, ds, rows, delta, g.Stats)
	return res.Skyline, res.ExtOnly
}

// RunPoints implements Device: one puller that turns each chunk into a
// block-per-point kernel launch.
func (g *GPUDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	kernel := gpu.PointKernel(g.Dev, g.Stats)
	for {
		lo, hi := grab(0)
		if lo >= hi {
			return
		}
		start := time.Now()
		kernel(ctx, lo, hi)
		account(0, hi-lo, time.Since(start))
	}
}

// ChunkHint implements Device: a launch should cover the card's resident
// blocks, which shrink as the per-point task state grows with d (§6.2).
func (g *GPUDevice) ChunkHint(d int) int { return gpu.PreferredChunk(g.Dev, d) }

// SpeedHint implements Device with the card's modelled issue throughput.
func (g *GPUDevice) SpeedHint() float64 { return g.Dev.RelativeSpeed() }

// Shares records how many parallel tasks each device completed.
type Shares struct {
	mu     sync.Mutex
	counts map[string]int64
}

// NewShares returns an empty share tracker.
func NewShares() *Shares { return &Shares{counts: make(map[string]int64)} }

// Add credits n tasks to a device.
func (s *Shares) Add(name string, n int64) {
	s.mu.Lock()
	s.counts[name] += n
	s.mu.Unlock()
}

// Total returns the number of tasks completed across all devices.
func (s *Shares) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t int64
	for _, c := range s.counts {
		t += c
	}
	return t
}

// Fractions returns each device's share of the total, sorted by name.
func (s *Shares) Fractions() []DeviceShare {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, c := range s.counts {
		total += c
	}
	out := make([]DeviceShare, 0, len(s.counts))
	for name, c := range s.counts {
		f := 0.0
		if total > 0 {
			f = float64(c) / float64(total)
		}
		out = append(out, DeviceShare{Name: name, Tasks: c, Fraction: f})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// DeviceShare is one device's slice of the parallel work.
type DeviceShare struct {
	Name     string
	Tasks    int64
	Fraction float64
}

// SDSCAll runs the SDSC template across all devices: within each lattice
// level, devices pull cuboids from a shared queue, so k devices compute k
// cuboids concurrently (Figure 2b with multiple devices).
func SDSCAll(ds *data.Dataset, devices []Device, maxLevel int) (*lattice.Lattice, *Shares) {
	return SDSCAllTraced(ds, devices, maxLevel, nil, nil)
}

// SDSCAllTraced is SDSCAll with default scheduler tuning (see SDSCAllSched).
func SDSCAllTraced(ds *data.Dataset, devices []Device, maxLevel int, tr *obs.Trace,
	onCuboid func(delta mask.Mask)) (*lattice.Lattice, *Shares) {
	return SDSCAllSched(ds, devices, maxLevel, Tuning{}, tr, onCuboid)
}

// SDSCAllSched is the scheduled form of SDSCAll: within each lattice level
// below the top, cuboids are handed out cost-ordered largest-first (by the
// min-parent extended-skyline size) so the expensive cuboids start first
// and no device is left holding a large cuboid after the rest of the level
// has drained — LPT scheduling against the level barrier. Each cuboid is
// recorded as a span on its device's track (plus per-level barrier spans),
// and completed cuboids are reported to onCuboid. tr and onCuboid may be
// nil.
func SDSCAllSched(ds *data.Dataset, devices []Device, maxLevel int, tun Tuning,
	tr *obs.Trace, onCuboid func(delta mask.Mask)) (*lattice.Lattice, *Shares) {
	shares := NewShares()
	pool := make(chan Device, len(devices))
	for _, d := range devices {
		pool <- d
	}
	hook := func(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
		dev := <-pool
		defer func() { pool <- dev }()
		var h obs.SpanHandle
		if tr != nil {
			h = tr.Begin(dev.Name(), obs.CatCuboid, fmt.Sprintf("δ=%0*b", ds.Dims, uint32(delta)))
			h.SetN(int64(len(rows)))
		}
		sky, extOnly := dev.Cuboid(ds, rows, delta)
		h.End()
		shares.Add(dev.Name(), 1)
		return sky, extOnly
	}
	l := lattice.TopDown(ds, hook, lattice.TopDownOptions{
		CuboidThreads:       len(devices),
		MaxLevel:            maxLevel,
		Trace:               tr,
		SuppressCuboidSpans: true,
		OnCuboid:            onCuboid,
		LargestFirst:        !tun.DisableCostOrder,
	})
	return l, shares
}

// MDMCAll runs the MDMC template across all devices: the shared tree and
// HashCube are built once; devices then drain the point-task queue
// concurrently with no further synchronisation (§4.3).
func MDMCAll(ds *data.Dataset, devices []Device, prepThreads, maxLevel int) (*templates.MDMCResult, *Shares) {
	return MDMCAllTraced(ds, devices, prepThreads, maxLevel, nil, nil)
}

// MDMCAllTraced is MDMCAll with default scheduler tuning (see MDMCAllSched).
func MDMCAllTraced(ds *data.Dataset, devices []Device, prepThreads, maxLevel int,
	tr *obs.Trace, onChunk func(n, total int)) (*templates.MDMCResult, *Shares) {
	res, shares, _ := MDMCAllSched(ds, devices, prepThreads, maxLevel, Tuning{}, tr, onChunk)
	return res, shares
}

// MDMCAllSched is the scheduled form of MDMCAll: devices drain per-device
// deques fed by a global grab counter, chunk sizes are auto-tuned from each
// device's throughput EWMA, and idle devices steal half the remaining range
// from the most burdened queue (see Scheduler). The prologue phases and one
// span per completed chunk are recorded on the owning device's track — the
// raw data of a Figure-12 work-share timeline; a device's CPU workers
// beyond lane 0 record on sub-tracks "NAME#lane". Stolen ranges are
// attributed to the stealing device, so Shares and the trace stay exactly
// consistent. onChunk, if non-nil, is told the size of every completed
// chunk plus the total task count |S⁺(P)|. tr and onChunk may be nil.
func MDMCAllSched(ds *data.Dataset, devices []Device, prepThreads, maxLevel int, tun Tuning,
	tr *obs.Trace, onChunk func(n, total int)) (*templates.MDMCResult, *Shares, SchedCounters) {
	ctx := templates.PrepareMDMCTraced(ds, prepThreads, 3, maxLevel, tr)
	shares, counters := MDMCRunPrepared(ctx, devices, tun, tr, onChunk)
	return &templates.MDMCResult{Cube: ctx.Cube, ExtRows: ctx.ExtRows}, shares, counters
}

// MDMCRunPrepared drains an already-prepared MDMC context across devices —
// the scheduled drain loop of MDMCAllSched without its prologue. Callers
// that need the prologue's artefacts beyond the cube (the static tree, for
// incremental maintenance; internal/delta keeps it to solve single-point
// insert tasks and rebuilds it at compaction) prepare the context
// themselves and hand it here.
func MDMCRunPrepared(ctx *templates.MDMCContext, devices []Device, tun Tuning,
	tr *obs.Trace, onChunk func(n, total int)) (*Shares, SchedCounters) {
	shares := NewShares()
	n := ctx.NumTasks()
	sched := NewScheduler(n, ctx.D, devices, tun)
	var wg sync.WaitGroup
	wg.Add(len(devices))
	for i, d := range devices {
		go func(i int, dev Device) {
			defer wg.Done()
			name := dev.Name()
			dev.RunPoints(ctx, sched.GrabFor(i), func(lane, k int, dur time.Duration) {
				sched.Observe(i, k, dur)
				shares.Add(name, int64(k))
				if tr != nil {
					tr.Record(ChunkTrack(name, lane), obs.CatChunk, "points", dur, int64(k))
				}
				if onChunk != nil {
					onChunk(k, n)
				}
			})
		}(i, d)
	}
	wg.Wait()
	return shares, sched.Counters()
}

// ChunkTrack names the trace track for a device lane: the device name for
// lane 0, "NAME#lane" for the extra CPU worker lanes. DeviceOfTrack is its
// inverse.
func ChunkTrack(name string, lane int) string {
	if lane == 0 {
		return name
	}
	return fmt.Sprintf("%s#%d", name, lane)
}

// DeviceOfTrack strips the "#lane" suffix off a chunk track name.
func DeviceOfTrack(track string) string {
	for i := 0; i < len(track); i++ {
		if track[i] == '#' {
			return track[:i]
		}
	}
	return track
}

// DefaultEcosystem reproduces the paper's test machine as devices: the two
// CPU sockets presented as one CPU device per socket, plus two GTX 980s and
// one Titan (§7.1 “Hardware”).
func DefaultEcosystem(cpuThreads int) []Device {
	half := cpuThreads / 2
	if half < 1 {
		half = 1
	}
	return []Device{
		&CPUDevice{Threads: half, Label: "CPU0"},
		&CPUDevice{Threads: cpuThreads - half, Label: "CPU1"},
		&GPUDevice{Dev: gpusim.GTX980(), Label: "980-1"},
		&GPUDevice{Dev: gpusim.GTX980(), Label: "980-2"},
		&GPUDevice{Dev: gpusim.GTXTitan(), Label: "Titan"},
	}
}
