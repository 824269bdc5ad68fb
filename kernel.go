package skycube

import "skycube/internal/dom"

// KernelCounters is a snapshot of the process-wide kernel activity counters:
// 64-lane word sweeps executed — dominance blocks and MDMC label columns —
// scans terminated early by a stop point, and filter calls the block/scalar
// gate (internal/dom.UseBlocks) sent to the scalar loop because the input was
// too small or the subspace too narrow. Impl says which implementation of the
// sweeps this process runs — "avx2" where the CPU has it, "go" otherwise; the
// answers are the same.
type KernelCounters struct {
	Impl           string
	BlockSweeps    uint64
	StopPointExits uint64
	ScalarFallback uint64
}

// KernelStats returns the cumulative kernel counters since process start.
func KernelStats() KernelCounters {
	s := dom.KernelStats()
	return KernelCounters{
		Impl:           s.Impl,
		BlockSweeps:    s.BlockSweeps,
		StopPointExits: s.StopPointExits,
		ScalarFallback: s.ScalarFallbacks,
	}
}
