// Package gpusim is the GPU device model on which the GPU template
// specialisations execute.
//
// Go has no practical CUDA story, so — per the substitution rule recorded
// in DESIGN.md — this package replaces the paper's physical NVIDIA cards
// with a software device that preserves the architectural properties the
// paper's GPU designs respond to (§2.3):
//
//   - a grid of thread blocks scheduled over a fixed number of streaming
//     multiprocessors (SMs);
//   - a per-block shared-memory budget that bounds how many blocks are
//     resident concurrently (the occupancy constraint that makes MDMC's
//     2·(2^d −1)-bit task state the limiting factor at high d, §6.2);
//   - 32-wide warps with warp votes and a divergence penalty;
//   - a global-memory cost model that distinguishes coalesced from
//     scattered transactions (128-byte lines).
//
// Kernels are written warp-cooperatively: the kernel function receives a
// BlockCtx and expresses its loads, ALU work, votes and divergence through
// it, so the *work* is executed for real on the host while the *cost* is
// accounted under the device model. Launch returns both the wall-clock
// outcome (the computed data) and modelled device statistics.
package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// WarpSize is the number of step-locked lanes per warp.
const WarpSize = 32

// Device describes one modelled GPU.
type Device struct {
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// SharedMemPerSM is the shared memory per SM in bytes (the paper's
	// card: 96 KB per 2048 concurrent threads).
	SharedMemPerSM int
	// MaxBlocksPerSM bounds resident blocks per SM irrespective of memory.
	MaxBlocksPerSM int
	// ClockGHz is the core clock used by the time model.
	ClockGHz float64
	// IPCPerSM is the modelled retired-instructions-per-cycle per SM.
	IPCPerSM float64
	// MemLatency is the modelled global-memory latency in cycles; the
	// effective cost per transaction assumes latency hiding across resident
	// warps, so only a fraction is charged.
	MemLatency int
	// HostWorkers caps the host goroutines used to execute blocks. 0 means
	// one per concurrently-resident block (up to a small multiple of SMs).
	HostWorkers int
	// PCIeGBps is the effective host↔device bandwidth in GB/s (PCIe3 x16
	// sustains ≈ 12). Transfers are part of the paper's timing convention
	// (§7.1: "including all PCIe transfers").
	PCIeGBps float64
}

// GTX980 models the NVIDIA GTX 980 used for the single-GPU experiments.
func GTX980() *Device {
	return &Device{
		Name: "GTX980", SMs: 16, SharedMemPerSM: 96 * 1024, MaxBlocksPerSM: 32,
		ClockGHz: 1.126, IPCPerSM: 4, MemLatency: 350, PCIeGBps: 12,
	}
}

// GTXTitan models the older-generation GTX Titan added for the cross-device
// experiments; fewer SMs, matching the paper's observation that it
// contributes a smaller work share.
func GTXTitan() *Device {
	return &Device{
		Name: "Titan", SMs: 14, SharedMemPerSM: 48 * 1024, MaxBlocksPerSM: 16,
		ClockGHz: 0.876, IPCPerSM: 4, MemLatency: 400, PCIeGBps: 10,
	}
}

// Stats are the modelled counters of one launch (or an accumulation).
type Stats struct {
	Blocks         int64
	Instructions   int64 // warp-level ALU/control instructions
	Transactions   int64 // global-memory transactions (128 B)
	SharedAccesses int64
	Divergences    int64 // serialised branch splits
	Votes          int64
	Syncs          int64
	// TransferBytes counts host↔device PCIe traffic.
	TransferBytes int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Blocks += other.Blocks
	s.Instructions += other.Instructions
	s.Transactions += other.Transactions
	s.SharedAccesses += other.SharedAccesses
	s.Divergences += other.Divergences
	s.Votes += other.Votes
	s.Syncs += other.Syncs
	s.TransferBytes += other.TransferBytes
}

// ModelSeconds converts the counters into modelled device seconds:
// instruction issue over all SMs, plus memory transactions at an effective
// (latency-hidden) cost, plus a serialisation penalty per divergence.
func (d *Device) ModelSeconds(s Stats) float64 {
	issue := float64(s.Instructions) / (float64(d.SMs) * d.IPCPerSM)
	// With thousands of resident warps most latency overlaps compute; an
	// effective 1/32 of the raw latency per transaction is charged, spread
	// over the SMs' load/store units.
	mem := float64(s.Transactions) * float64(d.MemLatency) / 32 / float64(d.SMs)
	div := float64(s.Divergences) * float64(WarpSize) / (float64(d.SMs) * d.IPCPerSM)
	shared := float64(s.SharedAccesses) / (float64(d.SMs) * d.IPCPerSM * 4)
	cycles := issue + mem + div + shared
	secs := cycles / (d.ClockGHz * 1e9)
	if d.PCIeGBps > 0 {
		secs += float64(s.TransferBytes) / (d.PCIeGBps * 1e9)
	}
	return secs
}

// Transfer returns the stats for a host↔device copy of the given size, to
// be accumulated alongside launch stats.
func Transfer(bytes int) Stats {
	return Stats{TransferBytes: int64(bytes)}
}

// BlockCtx is the execution context of one thread block. Kernels run the
// block's logic sequentially on the host while describing its parallel
// shape (loads, votes, divergence) through the accounting methods.
type BlockCtx struct {
	// Block is the block index within the launch grid.
	Block int
	// Threads is the block size (a multiple of WarpSize).
	Threads int
	stats   Stats
}

// Instr accounts n warp-level ALU/control instructions.
func (b *BlockCtx) Instr(n int) { b.stats.Instructions += int64(n) }

// LoadCoalesced accounts a warp loading `bytes` contiguous bytes from
// global memory: ceil(bytes/128) transactions.
func (b *BlockCtx) LoadCoalesced(bytes int) {
	b.stats.Transactions += int64((bytes + 127) / 128)
	b.stats.Instructions++
}

// LoadScattered accounts count independent loads of bytesEach from
// arbitrary addresses: one transaction each (the uncoalesced worst case).
func (b *BlockCtx) LoadScattered(count, bytesEach int) {
	b.stats.Transactions += int64(count)
	b.stats.Instructions += int64(count)
	_ = bytesEach
}

// SharedAccess accounts n shared-memory accesses.
func (b *BlockCtx) SharedAccess(n int) { b.stats.SharedAccesses += int64(n) }

// Diverge accounts a branch on which the warp's lanes disagreed,
// serialising both sides.
func (b *BlockCtx) Diverge() { b.stats.Divergences++ }

// Vote accounts a warp vote and returns its argument, mirroring CUDA's
// __any_sync usage in the refine kernel (§6.2).
func (b *BlockCtx) Vote(any bool) bool {
	b.stats.Votes++
	b.stats.Instructions++
	return any
}

// Sync accounts a __syncthreads barrier (blocks execute sequentially on the
// host, so this is purely an accounting event).
func (b *BlockCtx) Sync() { b.stats.Syncs++ }

// Launch executes a kernel grid on the device. sharedBytesPerBlock is the
// block's shared-memory footprint: it bounds occupancy (resident blocks)
// and errors out if a single block exceeds the per-SM budget, forcing
// callers to restructure exactly as real kernels must.
func (d *Device) Launch(blocks, threadsPerBlock, sharedBytesPerBlock int, kernel func(*BlockCtx)) (Stats, error) {
	if blocks <= 0 {
		return Stats{}, nil
	}
	if threadsPerBlock <= 0 || threadsPerBlock%WarpSize != 0 {
		return Stats{}, fmt.Errorf("gpusim: block size %d is not a positive multiple of %d", threadsPerBlock, WarpSize)
	}
	if sharedBytesPerBlock > d.SharedMemPerSM {
		return Stats{}, fmt.Errorf("gpusim: block needs %d B shared memory, SM has %d B",
			sharedBytesPerBlock, d.SharedMemPerSM)
	}
	residentPerSM := d.MaxBlocksPerSM
	if sharedBytesPerBlock > 0 {
		if byMem := d.SharedMemPerSM / sharedBytesPerBlock; byMem < residentPerSM {
			residentPerSM = byMem
		}
	}
	if residentPerSM < 1 {
		residentPerSM = 1
	}
	concurrency := d.SMs * residentPerSM
	if d.HostWorkers > 0 && concurrency > d.HostWorkers {
		concurrency = d.HostWorkers
	}
	if concurrency > blocks {
		concurrency = blocks
	}
	// Host execution is bounded separately so simulating a 512-block
	// occupancy does not spawn 512 goroutines.
	workers := concurrency
	if workers > 4*d.SMs {
		workers = 4 * d.SMs
	}

	var total Stats
	var mu sync.Mutex
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			local := Stats{}
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(blocks) {
					break
				}
				ctx := BlockCtx{Block: int(i), Threads: threadsPerBlock}
				kernel(&ctx)
				local.Add(ctx.stats)
				local.Blocks++
			}
			mu.Lock()
			total.Add(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total, nil
}

// OccupantBlocks reports how many blocks are concurrently resident for a
// given shared-memory footprint — the quantity the MDMC specialisation
// trades against task state (§6.2).
func (d *Device) OccupantBlocks(sharedBytesPerBlock int) int {
	residentPerSM := d.MaxBlocksPerSM
	if sharedBytesPerBlock > 0 {
		byMem := d.SharedMemPerSM / sharedBytesPerBlock
		if byMem < residentPerSM {
			residentPerSM = byMem
		}
	}
	if residentPerSM < 1 {
		residentPerSM = 1
	}
	return d.SMs * residentPerSM
}
