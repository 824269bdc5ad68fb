package skycube

import "skycube/internal/dom"

// KernelCounters is a snapshot of the process-wide kernel activity counters:
// 64-lane word sweeps executed — dominance blocks and MDMC label columns — and
// scans terminated early by a stop point. Impl says which implementation of
// the sweeps and the row compare this process runs — "avx2" where the CPU has
// it, "go" otherwise; the answers are the same.
type KernelCounters struct {
	Impl           string
	BlockSweeps    uint64
	StopPointExits uint64
	// ScalarFallback is always 0: no filter chooses between a block and a
	// scalar form any more. The field stays for existing readers.
	ScalarFallback uint64
}

// KernelStats returns the cumulative kernel counters since process start.
func KernelStats() KernelCounters {
	s := dom.KernelStats()
	return KernelCounters{
		Impl:           s.Impl,
		BlockSweeps:    s.BlockSweeps,
		StopPointExits: s.StopPointExits,
	}
}
