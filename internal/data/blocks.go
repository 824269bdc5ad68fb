package data

import "sync"

// DefaultBlockSize is the lane count of one SoA block. 256 lanes keep a
// block's per-dimension column in four cache lines while amortising the
// per-block word-sweep setup; callers with tiny windows (hybrid groups) use
// smaller blocks.
const DefaultBlockSize = 256

// Block is a structure-of-arrays view of up to BlockSize points projected
// onto K dimensions: column j holds the j-th projected coordinate of every
// lane, so a dominance sweep against one query point walks each column
// sequentially. This is the CPU mirror of the paper's §6.1 coalesced layout
// argument — the row-major Dataset stays the storage format, a Block is the
// comparison format. Between the two, the Hybrid engine reads a cuboid's
// staged copy: its points projected onto δ, point-major and sum-ordered, from
// which it appends block lanes without going back to the Dataset.
//
// Layout rule the kernels of internal/dom lean on: BlockSize is a multiple of
// 64, every column has BlockSize floats of backing store, and the columns are
// equally strided (len(Cols[0]) floats apart, carved from one buffer). So a
// sweep reads all 64 lanes of any word below ⌈N/64⌉ — unoccupied lanes hold
// zeros or the stale values of a pooled block's previous use, and are masked
// by Alive, not skipped. Blocks are built by BlockSet only.
//
// Invariant: no block is appended to while another goroutine sweeps it (a
// sweep reads lanes past N). Hybrid appends to its groups only after wg.Wait,
// its fresh window lives in the sequential phase, and merges sweep prebuilt
// sets; -race on the portable kernels checks it.
type Block struct {
	// N is the number of occupied lanes.
	N int
	// Cols[j][lane] is the projected coordinate of the lane's point on the
	// j-th dimension of the projection (not the original dimension index).
	Cols [][]float32
	// Rows[lane] is the caller-defined identity of the lane's point
	// (a dataset row, a candidate index — the kernels never interpret it).
	Rows []int32
	// Sums[lane] is the lane's δ-sum (float32 L1 norm over the projected
	// dimensions), the sort key of stop-point filtering.
	Sums []float32
	// Alive has bit lane set iff the lane is occupied and not killed (only
	// Append sets a bit); the kernels mask their verdict words with it.
	Alive []uint64

	buf []float32 // backing array carved into Cols
}

// MinSum returns the smallest δ-sum of any lane ever appended to the block.
// Blocks are filled in ascending sum order by SortedBlocksOf, so this is
// Sums[0]; killing lanes never raises it, which keeps the stop-point bound
// conservative (sound) after evictions.
func (b *Block) MinSum() float32 { return b.Sums[0] }

// Kill marks a lane dead. The lane's data stays in place; only the Alive
// mask changes, so concurrent readers of Cols are unaffected.
func (b *Block) Kill(lane int) {
	b.Alive[lane>>6] &^= 1 << uint(lane&63)
}

// IsAlive reports whether a lane is occupied and not killed.
func (b *Block) IsAlive(lane int) bool {
	return b.Alive[lane>>6]&(1<<uint(lane&63)) != 0
}

// prepare (re)shapes the block for k projected dimensions and bs lanes,
// reusing the backing buffer when large enough.
func (b *Block) prepare(k, bs int) {
	if cap(b.buf) < k*bs {
		b.buf = make([]float32, k*bs)
	}
	if cap(b.Cols) < k {
		b.Cols = make([][]float32, 0, k)
	}
	b.Cols = b.Cols[:0]
	for j := 0; j < k; j++ {
		b.Cols = append(b.Cols, b.buf[j*bs:(j+1)*bs])
	}
	if cap(b.Rows) < bs {
		b.Rows = make([]int32, bs)
		b.Sums = make([]float32, bs)
	}
	b.Rows = b.Rows[:bs]
	b.Sums = b.Sums[:bs]
	words := (bs + 63) / 64
	if cap(b.Alive) < words {
		b.Alive = make([]uint64, words)
	}
	b.Alive = b.Alive[:words]
	for i := range b.Alive {
		b.Alive[i] = 0
	}
	b.N = 0
}

// BlockSet is an appendable sequence of Blocks over one projection. For
// stop-point filtering the caller must append points in non-decreasing Sums
// order; the kernels then stop scanning at the first block whose MinSum
// exceeds the query's sum.
type BlockSet struct {
	// K is the projection width (number of dimensions per lane).
	K int
	// BlockSize is the lane capacity of each block, a multiple of 64.
	BlockSize int
	// Blocks are the filled blocks, in append order.
	Blocks []*Block

	spare []*Block // recycled blocks ready to activate
	n     int
}

// NewBlockSet returns an empty, non-pooled block set.
func NewBlockSet(k, blockSize int) *BlockSet {
	s := &BlockSet{}
	s.reset(k, blockSize)
	return s
}

// Len returns the number of appended lanes (killed lanes included).
func (s *BlockSet) Len() int { return s.n }

// Reset empties the set, keeping its shape and its blocks for reuse.
func (s *BlockSet) Reset() { s.reset(s.K, s.BlockSize) }

func (s *BlockSet) reset(k, blockSize int) {
	// Whole 64-lane words only, at least one: see Block.
	blockSize = (max(blockSize, 1) + 63) &^ 63
	// A block's buffer is carved per (k, blockSize); a shape change just
	// re-carves it in prepare, so spares survive reconfiguration.
	s.spare = append(s.spare, s.Blocks...)
	s.Blocks = s.Blocks[:0]
	s.K, s.BlockSize = k, blockSize
	s.n = 0
}

// Append adds one point: its projected coordinates (len ≥ K; extra entries
// ignored), its caller-defined row identity, and its δ-sum sort key.
func (s *BlockSet) Append(coords []float32, row int32, sum float32) {
	var b *Block
	if m := len(s.Blocks); m > 0 && s.Blocks[m-1].N < s.BlockSize {
		b = s.Blocks[m-1]
	} else {
		if m := len(s.spare); m > 0 {
			b = s.spare[m-1]
			s.spare = s.spare[:m-1]
		} else {
			b = &Block{}
		}
		b.prepare(s.K, s.BlockSize)
		s.Blocks = append(s.Blocks, b)
	}
	lane := b.N
	for j := 0; j < s.K; j++ {
		b.Cols[j][lane] = coords[j]
	}
	b.Rows[lane] = row
	b.Sums[lane] = sum
	b.Alive[lane>>6] |= 1 << uint(lane&63)
	b.N++
	s.n++
}

var blockSetPool = sync.Pool{New: func() any { return &BlockSet{} }}

// GetBlockSet returns an empty block set from the scratch pool, shaped for
// k projected dimensions and the given block size.
func GetBlockSet(k, blockSize int) *BlockSet {
	s := blockSetPool.Get().(*BlockSet)
	s.reset(k, blockSize)
	return s
}

// PutBlockSet returns a block set to the scratch pool. The set must no
// longer be referenced by the caller.
func PutBlockSet(s *BlockSet) {
	if s != nil {
		blockSetPool.Put(s)
	}
}

// ProjectInto copies p's coordinates on dims into dst[:len(dims)].
func ProjectInto(dst, p []float32, dims []int) {
	for idx, j := range dims {
		dst[idx] = p[j]
	}
}

// SumOver returns the float32 L1 norm of p over dims, accumulated in dims
// order. It is the monotone stop-point key: float32 addition of the same
// dimension sequence is monotone in each addend, so q ≤ p componentwise on
// dims implies SumOver(q, dims) ≤ SumOver(p, dims) — a dominator can never
// sort after the point it dominates.
func SumOver(p []float32, dims []int) float32 {
	var s float32
	for _, j := range dims {
		s += p[j]
	}
	return s
}

// SortedBlocksOf builds a pooled block set over the given dataset rows,
// projected onto dims and appended in ascending (δ-sum, row) order — the
// precondition of stop-point filtering. The caller owns the result and must
// return it with PutBlockSet.
func SortedBlocksOf(ds *Dataset, rows []int32, dims []int, blockSize int) *BlockSet {
	sums := make([]float32, len(rows))
	for i, row := range rows {
		sums[i] = SumOver(ds.Point(int(row)), dims)
	}
	s := GetBlockSet(len(dims), blockSize)
	pq := make([]float32, len(dims))
	for _, i := range SumOrder(sums, rows) {
		ProjectInto(pq, ds.Point(int(rows[i])), dims)
		s.Append(pq, rows[i], sums[i])
	}
	return s
}
