// Package lattice implements the lattice skycube representation (paper
// Fig. 1a) and the level-synchronised top-down traversal (Algorithms 1–2)
// shared by the lattice-based algorithms: QSkycube, PQSkycube, STSC and
// SDSC. Each non-empty subspace δ stores the point ids of S_δ plus the
// extra ids of S⁺_δ, so child cuboids can use the parent's extended skyline
// as a reduced input.
package lattice

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"skycube/internal/data"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
)

// Lattice is a materialised skycube: Sky[δ] is the sorted id list of S_δ
// and ExtOnly[δ] the sorted ids of S⁺_δ \ S_δ. Index 0 (the empty subspace)
// is unused. For a partial skycube only levels |δ| ≤ MaxLevel are filled.
type Lattice struct {
	D        int
	MaxLevel int
	Sky      [][]int32
	ExtOnly  [][]int32
}

// New returns an empty lattice over d dimensions.
func New(d int) *Lattice {
	n := 1 << uint(d)
	return &Lattice{D: d, MaxLevel: d, Sky: make([][]int32, n), ExtOnly: make([][]int32, n)}
}

// Skyline returns S_δ (nil if δ was not materialised).
func (l *Lattice) Skyline(delta mask.Mask) []int32 { return l.Sky[delta] }

// Extended returns |S⁺_δ|.
func (l *Lattice) ExtendedSize(delta mask.Mask) int {
	return len(l.Sky[delta]) + len(l.ExtOnly[delta])
}

// Membership returns the subspaces in which point id is a skyline member,
// ascending. The lattice is organised per subspace, so this scans every
// materialised cuboid with a binary search — the access-pattern asymmetry
// versus the HashCube that the paper notes in §2.2.
func (l *Lattice) Membership(id int32) []mask.Mask {
	var out []mask.Mask
	for delta := mask.Mask(1); int(delta) < len(l.Sky); delta++ {
		ids := l.Sky[delta]
		lo, hi := 0, len(ids)
		for lo < hi {
			mid := (lo + hi) / 2
			if ids[mid] < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(ids) && ids[lo] == id {
			out = append(out, delta)
		}
	}
	return out
}

// IDCount returns the total number of stored ids — the lattice's redundancy
// measure (each id is stored once per subspace skyline it appears in).
func (l *Lattice) IDCount() int {
	total := 0
	for delta := 1; delta < len(l.Sky); delta++ {
		total += len(l.Sky[delta]) + len(l.ExtOnly[delta])
	}
	return total
}

// MinParent returns the immediate superspace of δ with the smallest
// extended skyline — the reduced-input choice on line 5 of Algorithms 1–2.
// It panics if no parent is materialised (the traversal always fills level
// l+1 before level l).
func (l *Lattice) MinParent(delta mask.Mask) mask.Mask {
	best := mask.Mask(0)
	bestSize := int(^uint(0) >> 1)
	for _, p := range mask.Parents(delta, l.D) {
		if l.Sky[p] == nil && l.ExtOnly[p] == nil {
			continue
		}
		if s := l.ExtendedSize(p); s < bestSize {
			bestSize = s
			best = p
		}
	}
	if best == 0 {
		panic("lattice: no materialised parent")
	}
	return best
}

// CuboidFunc computes one cuboid: given the input dataset, the candidate
// rows (ids into ds; never nil) and the subspace, it returns the rows of
// S_δ and of S⁺_δ \ S_δ, each ascending. It is the hook the templates
// specialise (paper §4.2). A CuboidFunc runs on however many threads it was
// built with; TopDownShared builds one per thread share instead.
type CuboidFunc func(ds *data.Dataset, rows []int32, delta mask.Mask) (sky, extOnly []int32)

// Shares returns the thread share of each worker computing a level of the
// given number of cuboids under a budget of threads: there are
// w = min(threads, cuboids) workers, each gets ⌊threads/w⌋ threads and the
// first threads mod w one more, so the shares sum to the budget. A level of
// at least threads cuboids gives every worker one thread; a lone cuboid gets
// them all.
func Shares(threads, cuboids int) []int {
	threads = max(threads, 1)
	w := max(min(threads, cuboids), 1)
	shares := make([]int, w)
	for i := range shares {
		shares[i] = threads / w
		if i < threads%w {
			shares[i]++
		}
	}
	return shares
}

// TopDownOptions configure a traversal.
type TopDownOptions struct {
	// CuboidThreads is the traversal's thread budget: up to that many
	// cuboids of a lattice level are computed concurrently (the
	// STSC/PQSkycube axis of parallelism). 1 means each level is computed
	// cuboid-by-cuboid (SDSC and sequential QSkycube). Under TopDownShared
	// a level of fewer cuboids than threads splits the budget among them
	// (Shares).
	CuboidThreads int
	// MaxLevel d′ restricts materialisation to subspaces with |δ| ≤ d′
	// (partial skycubes, paper App. A.2). 0 or ≥ d means the full skycube.
	// When d′ < d the full-space extended skyline is computed once and used
	// as the input for every level-d′ cuboid.
	MaxLevel int
	// OnCuboid, if non-nil, is called after each cuboid completes. Used by
	// the cross-device scheduler to account work shares.
	OnCuboid func(delta mask.Mask)
	// FirstParent, if set, feeds each cuboid the extended skyline of its
	// *first* materialised parent instead of the smallest one — the
	// ablation of the min-cardinality parent selection on line 5 of
	// Algorithms 1–2.
	FirstParent bool
	// Trace, if non-nil, records one span per lattice level (the template's
	// synchronisation barriers) and one span per cuboid, on a track per
	// traversal worker. Nil costs one pointer test per cuboid.
	Trace *obs.Trace
	// Track names worker w's trace track; nil names it "lattice-w" (see
	// Tracks). The cross-device traversal names each worker after the device
	// it is bound to.
	Track func(worker int) string
	// LargestFirst orders the cuboids of each level below the top by
	// descending min-parent extended-skyline size before handing them to
	// the workers — LPT scheduling against the per-level barrier, so the
	// expensive cuboids start first and no worker is left computing a large
	// cuboid alone after the rest of the level has drained.
	LargestFirst bool
}

// Tracks returns the Track option that puts worker w on track "prefix-w".
func Tracks(prefix string) func(worker int) string {
	return func(w int) string { return fmt.Sprintf("%s-%d", prefix, w) }
}

// TopDown materialises the skycube of ds with the level-synchronised
// traversal of Algorithms 1–2, calling compute for every cuboid. The root
// cuboid's input is all of ds; every other cuboid receives the extended
// skyline of its smallest materialised parent. Every cuboid runs as compute
// runs, whatever its level's size.
func TopDown(ds *data.Dataset, compute CuboidFunc, opt TopDownOptions) *Lattice {
	return topDown(ds, func(int, int) CuboidFunc { return compute }, false, opt)
}

// TopDownWorkers is TopDown with worker w of every level computing its
// cuboids with hook(w); a level of c cuboids runs min(CuboidThreads, c)
// workers, and a lone cuboid runs on worker 0. The cross-device traversal
// binds one device to each worker this way.
func TopDownWorkers(ds *data.Dataset, hook func(worker int) CuboidFunc, opt TopDownOptions) *Lattice {
	return topDown(ds, func(w, _ int) CuboidFunc { return hook(w) }, false, opt)
}

// TopDownShared is TopDown with a hook built per thread share: the workers
// of a level split the CuboidThreads budget as Shares says, and each
// computes its cuboids with hook(share). A level of at least CuboidThreads
// cuboids runs exactly as under TopDown; a lone cuboid — the root, or a
// partial skycube's S⁺(P) — runs on the whole budget.
func TopDownShared(ds *data.Dataset, hook func(threads int) CuboidFunc, opt TopDownOptions) *Lattice {
	return topDown(ds, func(_, threads int) CuboidFunc { return hook(threads) }, true, opt)
}

// topDown is the traversal behind TopDown, TopDownWorkers and TopDownShared:
// hook builds worker w's cuboid hook from w and its Shares entry. Only a
// shared traversal's cuboid spans carry the share (arg "threads"); any other
// hook runs on however many threads it was built with, which the traversal
// does not know.
func topDown(ds *data.Dataset, hook func(worker, threads int) CuboidFunc, shared bool, opt TopDownOptions) *Lattice {
	d := ds.Dims
	l := New(d)
	maxLevel := opt.MaxLevel
	if maxLevel <= 0 || maxLevel > d {
		maxLevel = d
	}
	l.MaxLevel = maxLevel
	threads := max(opt.CuboidThreads, 1)

	tr := opt.Trace
	track := opt.Track
	if track == nil {
		track = Tracks("lattice")
	}

	all := make([]int32, ds.N)
	for i := range all {
		all[i] = int32(i)
	}

	var topInput []int32 // input rows for the top materialised level
	if maxLevel == d {
		topInput = all
	} else {
		// Partial skycube: compute S⁺ of the full space once as the reduced
		// input for level maxLevel, without materialising levels above it.
		h := tr.Begin(track(0), obs.CatCuboid, "S⁺(P)")
		h.SetN(int64(len(all)))
		sky, extOnly := hook(0, threads)(ds, all, mask.Full(d))
		if shared {
			h.SetArg("threads", int64(threads))
		}
		h.End()
		topInput = MergeSorted(sky, extOnly)
	}

	for level := maxLevel; level >= 1; level-- {
		cuboids := mask.Level(d, level)
		// A cuboid below the top level reads the extended skyline of its
		// smallest (or, for the ablation, first) materialised parent. Each
		// parent's is merged once per level and shared by its children, which
		// only read it.
		inputs := make([][]int32, len(cuboids))
		merged := make(map[mask.Mask][]int32)
		for i, delta := range cuboids {
			if level == maxLevel {
				inputs[i] = topInput
				continue
			}
			p := l.parent(delta, opt.FirstParent)
			rows, ok := merged[p]
			if !ok {
				rows = MergeSorted(l.Sky[p], l.ExtOnly[p])
				merged[p] = rows
			}
			inputs[i] = rows
		}
		order := make([]int, len(cuboids))
		for i := range order {
			order[i] = i
		}
		if opt.LargestFirst && level < maxLevel {
			// The size of a cuboid's input is the best available estimate of
			// its cost.
			slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(inputs[b]), len(inputs[a])) })
		}
		lh := tr.Begin("levels", obs.CatLevel, fmt.Sprintf("level %d", level))
		lh.SetN(int64(len(cuboids)))
		share := Shares(threads, len(cuboids))
		computes := make([]CuboidFunc, len(share))
		for w := range computes {
			computes[w] = hook(w, share[w])
		}
		run := func(worker, i int) {
			delta, rows := cuboids[i], inputs[i]
			var ch obs.SpanHandle
			if tr != nil {
				ch = tr.Begin(track(worker), obs.CatCuboid,
					fmt.Sprintf("δ=%0*b", d, uint32(delta)))
				ch.SetN(int64(len(rows)))
			}
			sky, extOnly := computes[worker](ds, rows, delta)
			ch.SetArg("sky", int64(len(sky)))
			ch.SetArg("ext_only", int64(len(extOnly)))
			ch.SetArg("label_depth", int64(skyline.LabelDepth(len(rows), level)))
			if shared {
				ch.SetArg("threads", int64(share[worker]))
			}
			ch.End()
			l.Sky[delta] = sky
			l.ExtOnly[delta] = extOnly
			if opt.OnCuboid != nil {
				opt.OnCuboid(delta)
			}
		}
		if len(share) == 1 {
			for _, i := range order {
				run(0, i)
			}
			lh.End()
			continue
		}
		// Level-parallel: cuboids are independent; synchronise per level.
		// Each cuboid runs as the worker that has been idle longest (a FIFO
		// of idle workers), so every worker of a level with enough cuboids
		// gets one, however the host schedules the goroutines.
		idle := make(chan int, len(share))
		for w := range share {
			idle <- w
		}
		var next int64
		var wg sync.WaitGroup
		wg.Add(len(share))
		for range share {
			go func() {
				defer wg.Done()
				for {
					i := atomic.AddInt64(&next, 1) - 1
					if i >= int64(len(cuboids)) {
						return
					}
					w := <-idle
					run(w, order[i])
					idle <- w
				}
			}()
		}
		wg.Wait()
		lh.End()
	}
	return l
}

// parent returns the materialised immediate superspace of δ whose extended
// skyline is δ's input: the smallest, or the first for the ablation.
func (l *Lattice) parent(delta mask.Mask, first bool) mask.Mask {
	if first {
		return l.anyParent(delta)
	}
	return l.MinParent(delta)
}

// anyParent returns the first materialised immediate superspace of δ.
func (l *Lattice) anyParent(delta mask.Mask) mask.Mask {
	for _, p := range mask.Parents(delta, l.D) {
		if l.Sky[p] != nil || l.ExtOnly[p] != nil {
			return p
		}
	}
	panic("lattice: no materialised parent")
}

// MergeSorted merges two ascending id lists; with one of them empty it
// returns the other.
func MergeSorted(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
