// Package hetero runs the SDSC and MDMC templates over a list of devices —
// the paper's cross-device parallelism (§1, §4.1). A CPU-only run is one CPU
// device, a one-card run one GPU device, and a cross-device run the CPU (as
// two socket devices) and any number of modelled GPUs cooperating on a
// single skycube, sharing the read-only template structures and pulling
// parallel tasks from a common queue. SDSC and MDMC are the only entry
// points; every run, whatever its devices, takes the same path.
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
}

// CPUDevice is the multicore CPU as a device: Hybrid for cuboids, the §5.2
// kernel for points.
type CPUDevice struct {
	// Threads is the core count the device may use.
	Threads int
	// Label overrides the default name (e.g. "CPU0"/"CPU1" to present two
	// sockets as separate devices, as Figure 12 does).
	Label string
	// PSkyline computes cuboids with the naive divide-and-conquer multicore
	// baseline instead of Hybrid.
	PSkyline bool
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

// Cuboid implements Device with the Hybrid multicore skyline, or PSkyline.
func (c *CPUDevice) Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
	algo := skyline.AlgoHybrid
	if c.PSkyline {
		algo = skyline.AlgoPSkyline
	}
	res := skyline.Compute(ds, rows, delta, algo, c.threads())
	return res.Skyline, res.ExtOnly
}

// cpuPointChunk is the CPU's preferred grab size per worker.
const cpuPointChunk = 64

// RunPoints implements Device: every core is an independent puller lane on
// the shared grab source.
func (c *CPUDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	templates.RunMDMCGrab(ctx, templates.CPUPointKernel(templates.MDMCOptions{}), c.threads(), grab, account)
}

// ChunkHint implements Device: the §5.2 kernel's cache-friendly chunk.
func (c *CPUDevice) ChunkHint(int) int { return cpuPointChunk }

// GPUDevice wraps one modelled GPU.
type GPUDevice struct {
	Dev *gpusim.Device
	// Label disambiguates same-model cards ("GTX980-1", "GTX980-2").
	Label string
	// Stats, if non-nil, accumulates the device's modelled counters.
	Stats *gpu.StatsCollector
	// GGS computes cuboids with the sort-based GGS baseline instead of the
	// SkyAlign-style kernel.
	GGS bool
}

// Name implements Device.
func (g *GPUDevice) Name() string {
	if g.Label != "" {
		return g.Label
	}
	return g.Dev.Name
}

// Cuboid implements Device with the SkyAlign-style device kernel, or GGS.
func (g *GPUDevice) Cuboid(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
	compute := gpu.Compute
	if g.GGS {
		compute = gpu.ComputeGGS
	}
	res := compute(g.Dev, ds, rows, delta, g.Stats)
	return res.Skyline, res.ExtOnly
}

// RunPoints implements Device: one puller that turns each chunk into a
// block-per-point kernel launch.
func (g *GPUDevice) RunPoints(ctx *templates.MDMCContext, grab Grab, account AccountFunc) {
	templates.RunMDMCGrab(ctx, gpu.PointKernel(g.Dev, g.Stats), 1, grab, account)
}

// ChunkHint implements Device: a launch should cover the card's resident
// blocks, which shrink as the per-point task state grows with d (§6.2).
func (g *GPUDevice) ChunkHint(d int) int { return gpu.PreferredChunk(g.Dev, d) }

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

// Options configure a run of SDSC or MDMC over devices. All may be zero.
type Options struct {
	// Threads is the thread count of MDMC's prologue (S⁺(P) and the static
	// tree), which runs on the CPU whatever the devices.
	Threads int
	// MaxLevel restricts materialisation to |δ| ≤ MaxLevel (App. A.2); 0
	// means the full skycube.
	MaxLevel int
	// Trace, if non-nil, records SDSC's level spans and each cuboid on its
	// device's track, or MDMC's prologue phases and each completed chunk on
	// its device lane's track (ChunkTrack).
	Trace *obs.Trace
	// Metrics, if non-nil, receives the MDMC scheduler's retunes and rates.
	Metrics *obs.SchedMetrics
	// OnCuboid, if non-nil, is called after each SDSC cuboid completes.
	OnCuboid func(delta mask.Mask)
	// OnChunk, if non-nil, is told the size of every completed MDMC chunk
	// plus the task count |S⁺(P)|.
	OnChunk func(n, total int)
}

// SDSC runs the SDSC template over devices: within each lattice level, the
// devices pull cuboids from a shared queue, so k devices compute k cuboids
// concurrently (Figure 2b with multiple devices); one device computes the
// cuboids one at a time. Below the top, each level's cuboids are handed out
// largest-first (by the min-parent extended-skyline size) so the expensive
// cuboids start first and no device is left holding a large cuboid after
// the rest of the level has drained — LPT scheduling against the level
// barrier. A level of c cuboids, fewer than the devices, runs on the first c
// (the root and a partial skycube's S⁺(P) on the first device). Each
// cuboid's span is on its device's track.
func SDSC(ds *data.Dataset, devices []Device, opt Options) (*lattice.Lattice, *Shares) {
	shares := NewShares()
	l := lattice.TopDownWorkers(ds, func(w int) lattice.CuboidFunc {
		dev := devices[w]
		return func(ds *data.Dataset, rows []int32, delta mask.Mask) ([]int32, []int32) {
			sky, extOnly := dev.Cuboid(ds, rows, delta)
			shares.Add(dev.Name(), 1)
			return sky, extOnly
		}
	}, lattice.TopDownOptions{
		CuboidThreads: len(devices),
		MaxLevel:      opt.MaxLevel,
		Trace:         opt.Trace,
		Track:         func(w int) string { return devices[w].Name() },
		OnCuboid:      opt.OnCuboid,
		LargestFirst:  true,
	})
	return l, shares
}

// MDMC runs the MDMC template over devices: the shared tree and HashCube
// are built once on the CPU (the prologue's phases are spans on the
// "prepare" track), then MDMCPrepared drains the point tasks.
func MDMC(ds *data.Dataset, devices []Device, opt Options) (*templates.MDMCResult, *Shares, SchedCounters) {
	ctx := templates.PrepareMDMCTraced(ds, nil, opt.Threads, 3, opt.MaxLevel, opt.Trace)
	shares, counters := MDMCPrepared(ctx, devices, opt)
	return &templates.MDMCResult{Cube: ctx.Cube, ExtRows: ctx.ExtRows}, shares, counters
}

// MDMCPrepared drains an already-prepared MDMC context over devices: they
// consume the common point-task queue concurrently with no further
// synchronisation (§4.3), each grab sized from the device's throughput (see
// Scheduler). One span per completed chunk goes on the owning device lane's
// track — the raw data of a Figure-12 work-share timeline. Callers that need
// the prologue's artefacts beyond the cube (internal/delta keeps the static
// tree to solve single-point insert tasks) prepare the context themselves.
func MDMCPrepared(ctx *templates.MDMCContext, devices []Device, opt Options) (*Shares, SchedCounters) {
	shares := NewShares()
	n := ctx.NumTasks()
	sched := NewScheduler(n, ctx.D, devices, opt.Metrics)
	var wg sync.WaitGroup
	wg.Add(len(devices))
	for i, d := range devices {
		go func(i int, dev Device) {
			defer wg.Done()
			name := dev.Name()
			dev.RunPoints(ctx, sched.GrabFor(i), func(lane, k int, dur time.Duration) {
				sched.Observe(i, k, dur)
				shares.Add(name, int64(k))
				if opt.Trace != nil {
					opt.Trace.Record(ChunkTrack(name, lane), obs.CatChunk, "points", dur, int64(k))
				}
				if opt.OnChunk != nil {
					opt.OnChunk(k, n)
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

// Devices lists the devices of a run on threads CPU threads and the given
// cards. With no card it is the CPU as one device over all threads. With
// cards it is the cards, preceded, when cpuAlso, by the CPU as two socket
// devices "CPU0" and "CPU1" (Figure 12's presentation; §7.1 “Hardware”).
// A lone card keeps its model's name; in a longer list every card is
// numbered within its model ("GTX980-1", "GTX980-2"). Every card gets a
// collector for its modelled counters.
func Devices(threads int, cpuAlso bool, cards ...*gpusim.Device) []Device {
	if len(cards) == 0 {
		return []Device{&CPUDevice{Threads: threads}}
	}
	var devices []Device
	if cpuAlso {
		half := max(threads/2, 1)
		devices = append(devices,
			&CPUDevice{Threads: half, Label: "CPU0"},
			&CPUDevice{Threads: max(threads-half, 1), Label: "CPU1"})
	}
	numbered := len(devices)+len(cards) > 1
	counts := map[string]int{}
	for _, card := range cards {
		g := &GPUDevice{Dev: card, Stats: &gpu.StatsCollector{}}
		if numbered {
			counts[card.Name]++
			g.Label = fmt.Sprintf("%s-%d", card.Name, counts[card.Name])
		}
		devices = append(devices, g)
	}
	return devices
}
