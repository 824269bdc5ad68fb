// The counters of the block dominance layer.
//
// Each dominance role has one implementation. The skycube templates, the
// delta flush and the cluster merge sweep 64-lane words (block.go); the
// baselines and the oracle compare rows (Compare). Nothing chooses between
// the two at run time: which one a caller uses is the caller's role.
package dom

import "sync/atomic"

// KernelCounters is a snapshot of the process-wide kernel activity counters,
// exported as the skycube_kernel_* metric family.
type KernelCounters struct {
	// Impl names the implementation of the kernels this process runs — the
	// word sweeps of dominance blocks and MDMC label columns, and the row
	// compare: "avx2" (block_amd64.s, label_amd64.s, compare_amd64.s) or "go"
	// (the portable loops of block.go, label.go and dom.go).
	Impl string
	// BlockSweeps counts 64-lane word sweeps executed: dominance blocks
	// (one per word a block kernel sweeps, and one per RelWord call of the
	// delete flush's survivor sweep) and MDMC label columns (one per
	// LabelWord call of a filter or refine).
	BlockSweeps uint64
	// StopPointExits counts scans terminated early because the next block's
	// minimum δ-sum proved no later candidate could dominate.
	StopPointExits uint64
}

var kcSweeps, kcStops atomic.Uint64

// KernelStats returns the cumulative counters since process start.
func KernelStats() KernelCounters {
	impl := "go"
	if useAVX2 {
		impl = "avx2"
	}
	return KernelCounters{
		Impl:           impl,
		BlockSweeps:    kcSweeps.Load(),
		StopPointExits: kcStops.Load(),
	}
}

// KernelTally batches kernel counter updates locally so hot loops pay one
// atomic add per counter per filter call rather than per block sweep.
type KernelTally struct {
	Sweeps    uint64
	StopExits uint64
}

// Flush adds the tally into the global counters and zeroes it.
func (t *KernelTally) Flush() {
	if t.Sweeps != 0 {
		kcSweeps.Add(t.Sweeps)
		t.Sweeps = 0
	}
	if t.StopExits != 0 {
		kcStops.Add(t.StopExits)
		t.StopExits = 0
	}
}
