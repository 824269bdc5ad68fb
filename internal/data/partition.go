package data

import (
	"fmt"
	"math"
	"sort"
)

// PartitionMode selects how Partition distributes rows across shards.
type PartitionMode int

const (
	// RoundRobin assigns row i to shard i mod k, so shard s holds the
	// original rows s, s+k, s+2k, … — local row r of shard s is global row
	// s + r*k (id base s, id stride k). Round-robin keeps every shard's
	// distribution statistically identical to the whole, and the arithmetic
	// id mapping stays valid as shards append new points.
	RoundRobin PartitionMode = iota
	// Range assigns contiguous row blocks: shard s holds the rows
	// [RangeOffsets(n,k)[s], RangeOffsets(n,k)[s+1]) — local row r is global
	// row offset+r (id base offset, id stride 1).
	Range
	// Angular sorts points by their first hyperspherical angle around the
	// dataset's per-dimension minimum corner and cuts equal-count slices.
	// Angular slices align with dominance rays from the origin, which keeps
	// every slice's local skyline small on anticorrelated data (arXiv
	// 2501.03850). Angular is a positional mode: global ids follow the
	// concatenation order of the returned shards (shard s's id base is the
	// total size of shards 0..s-1, stride 1), so angular-partitioned
	// clusters are read-only like Range.
	Angular
)

// String implements fmt.Stringer.
func (m PartitionMode) String() string {
	switch m {
	case RoundRobin:
		return "round-robin"
	case Range:
		return "range"
	case Angular:
		return "angular"
	}
	return "?"
}

// Positional reports whether the mode maps global ids by concatenation
// order (id stride 1, base = prefix size sum) rather than by arithmetic
// over original row numbers. Positional partitions renumber points: global
// id g is row g - base of shard owner(g), in the shard order Partition
// returned.
func (m PartitionMode) Positional() bool { return m == Range || m == Angular }

// RangeOffsets returns the k+1 boundaries of the balanced contiguous split
// of n rows: shard s is [out[s], out[s+1]), sizes differing by at most one.
func RangeOffsets(n, k int) []int {
	out := make([]int, k+1)
	q, rem := n/k, n%k
	for s := 0; s < k; s++ {
		out[s+1] = out[s] + q
		if s < rem {
			out[s+1]++
		}
	}
	return out
}

// Partition splits ds into k horizontal shards under the given mode. Each
// shard's IDs retain the original global row indices, so shard-local results
// remain comparable with (and mergeable into) whole-dataset results — the
// precondition of distributed skyline merging.
func Partition(ds *Dataset, k int, mode PartitionMode) ([]*Dataset, error) {
	if k <= 0 {
		return nil, fmt.Errorf("data: partition count %d must be positive", k)
	}
	if k > ds.N {
		return nil, fmt.Errorf("data: cannot split %d points into %d shards", ds.N, k)
	}
	shards := make([]*Dataset, k)
	switch mode {
	case RoundRobin:
		for s := 0; s < k; s++ {
			rows := make([]int, 0, (ds.N-s+k-1)/k)
			for i := s; i < ds.N; i += k {
				rows = append(rows, i)
			}
			shards[s] = ds.Subset(rows)
		}
	case Range:
		off := RangeOffsets(ds.N, k)
		for s := 0; s < k; s++ {
			rows := make([]int, 0, off[s+1]-off[s])
			for i := off[s]; i < off[s+1]; i++ {
				rows = append(rows, i)
			}
			shards[s] = ds.Subset(rows)
		}
	case Angular:
		for s, rows := range angularSplit(ds, k) {
			shards[s] = ds.Subset(rows)
		}
	default:
		return nil, fmt.Errorf("data: unknown partition mode %d", mode)
	}
	return shards, nil
}

// angularSplit orders rows by the first hyperspherical angle of the point
// relative to the dataset's min corner — atan2 of the tail norm over the
// first shifted coordinate, so negative raw coordinates are handled by the
// shift — and cuts k equal-count contiguous slices. Ties (including exact
// duplicate points) order by row index for determinism.
func angularSplit(ds *Dataset, k int) [][]int {
	min := make([]float64, ds.Dims)
	for j := range min {
		min[j] = math.Inf(1)
	}
	for i := 0; i < ds.N; i++ {
		for j := 0; j < ds.Dims; j++ {
			if v := float64(ds.Vals[i*ds.Dims+j]); v < min[j] {
				min[j] = v
			}
		}
	}
	angle := make([]float64, ds.N)
	for i := 0; i < ds.N; i++ {
		first := float64(ds.Vals[i*ds.Dims]) - min[0]
		var tail float64
		for j := 1; j < ds.Dims; j++ {
			t := float64(ds.Vals[i*ds.Dims+j]) - min[j]
			tail += t * t
		}
		angle[i] = math.Atan2(math.Sqrt(tail), first)
	}
	rows := make([]int, ds.N)
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(a, b int) bool {
		if angle[rows[a]] != angle[rows[b]] {
			return angle[rows[a]] < angle[rows[b]]
		}
		return rows[a] < rows[b]
	})
	off := RangeOffsets(ds.N, k)
	out := make([][]int, k)
	for s := 0; s < k; s++ {
		out[s] = rows[off[s]:off[s+1]]
	}
	return out
}

// CheckFinite returns an error naming the first non-finite coordinate
// (NaN or ±Inf) in ds, or nil if every value is finite. Non-finite values
// poison dominance tests — NaN compares false against everything, so a NaN
// point is never dominated and silently joins every skyline — hence loaders
// reject them up front.
func CheckFinite(ds *Dataset) error {
	for i, v := range ds.Vals {
		if isFinite(v) {
			continue
		}
		return fmt.Errorf("data: point %d dimension %d is %v (coordinates must be finite)",
			i/ds.Dims, i%ds.Dims, v)
	}
	return nil
}

// CheckFiniteRow validates one point's coordinates the same way.
func CheckFiniteRow(p []float32) error {
	for j, v := range p {
		if !isFinite(v) {
			return fmt.Errorf("data: dimension %d is %v (coordinates must be finite)", j, v)
		}
	}
	return nil
}

func isFinite(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
