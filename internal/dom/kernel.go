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

// The two thresholds of the gate: below 64 lanes there is not one full verdict
// word to sweep, so projecting into a block and setting it up is mostly
// overhead; and a BNL window in a subspace narrower than 5 dimensions is
// dense with dominators, so the scalar loop exits on its first comparisons.
// They were set on the Go word sweep (4 096 uniform points, amd64: blocks lost
// 1.7× at d = 4 and won 2.9×/5.6× at d = 6/8). Re-measured on the AVX2 sweep
// (BenchmarkBNLGate, table in EXPERIMENTS.md "Dominance-kernel benchmarks"),
// blocks win 21.7×/37.8× at d = 6/8 and now also 3.0× at d = 4, from 64 lanes
// up; they draw at d = 3 (1.1–1.5×), lose at d = 2 (0.4–0.7×) and at 8 lanes
// (0.2–0.6× at every width), and at 32 lanes win only from d = 4 (1.5–3.1×).
// So the lines are conservative on an AVX2 host and right on a portable one.
// They stay where they are: moving either changes dom.scalar_fallbacks and
// the exact counts of narrow inputs, which is ROADMAP item 3(d), a change
// with its own claim; this is the one gate that work then moves.
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
	// Impl names the implementation of the word sweeps this process runs —
	// dominance blocks and MDMC label columns alike: "avx2" (block_amd64.s,
	// label_amd64.s) or "go" (the portable loops of block.go and label.go).
	Impl string
	// BlockSweeps counts 64-lane word sweeps executed: dominance blocks
	// (one per word a block kernel sweeps) and MDMC label columns (one per
	// LabelWord call of a filter or refine).
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
	impl := "go"
	if useAVX2 {
		impl = "avx2"
	}
	return KernelCounters{
		Impl:            impl,
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
