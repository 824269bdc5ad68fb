// The block/scalar gate and the counters of the block dominance layer.
//
// The block kernels (block.go) are a pure performance layer: every filter
// that uses them keeps a scalar loop that is bit-for-bit equivalent, and
// which of the two runs is decided here, once, from what the call can
// observe about its input — never by a caller, a flag or a global. The gate
// sits at the bottom of the import graph so the skyline algorithms and the
// cluster merge ask the same function.
package dom

import "sync/atomic"

// The two thresholds of the gate, as measured for BENCH_kernel.json (4 096
// uniform points, amd64): below 64 lanes there is not one full verdict word
// to sweep, so projecting into a block and setting it up is pure overhead;
// and a BNL window in a subspace narrower than 5 dimensions is dense with
// dominators, so the scalar loop exits on its first comparisons — blocks
// lose 1.7× at d = 4 and win 2.9×/5.6× at d = 6/8. Making blocks win below
// either line is ROADMAP item 3; this is the one gate that work then moves.
const (
	blockMinLanes = 64
	blockMinWidth = 5
)

// Shape is how a filter meets its candidates, the third input of UseBlocks.
type Shape uint8

const (
	// Probe tests each point against a complete candidate set (skyline
	// merges, witness filters). Such scans rarely end early, so width does
	// not matter; over a data.SortedBlocksOf-ordered set they pass
	// useStop = true to BlocksAnyDominator.
	Probe Shape = iota
	// Window tests each point against the survivors so far, in ascending
	// δ-sum order (BNL). A stop point cannot fire there — every lane was
	// appended before the probe and sums to no more — so useStop is false.
	Window
)

// UseBlocks reports whether a filter over `lanes` candidates in a subspace of
// `width` dimensions runs the block kernels, and counts a scalar fallback
// when it does not.
func UseBlocks(lanes, width int, shape Shape) bool {
	if lanes >= blockMinLanes && (shape == Probe || width >= blockMinWidth) {
		return true
	}
	kcFallbacks.Add(1)
	return false
}

// KernelCounters is a snapshot of the process-wide kernel activity counters,
// exported as the skycube_kernel_* metric family.
type KernelCounters struct {
	// BlockSweeps counts 64-lane word sweeps executed by the block kernels.
	BlockSweeps uint64
	// StopPointExits counts scans terminated early because the next block's
	// minimum δ-sum proved no later candidate could dominate.
	StopPointExits uint64
	// ScalarFallbacks counts filter calls UseBlocks sent to the scalar path.
	ScalarFallbacks uint64
}

var kcSweeps, kcStops, kcFallbacks atomic.Uint64

// KernelStats returns the cumulative counters since process start.
func KernelStats() KernelCounters {
	return KernelCounters{
		BlockSweeps:     kcSweeps.Load(),
		StopPointExits:  kcStops.Load(),
		ScalarFallbacks: kcFallbacks.Load(),
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
