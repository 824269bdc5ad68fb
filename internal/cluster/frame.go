package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"skycube/internal/data"
	"skycube/internal/mask"
	"skycube/internal/wal"
)

// The /shard/cuboid reply is one binary frame — the only format the endpoint
// speaks — in the WAL's envelope (wal.AppendFrame: u32 len | u32 CRC-32C |
// payload, little-endian). The payload is
//
//	 0  4 bytes  magic and version, "SKF2"
//	 4  u32      subspace δ
//	 8  u64      epoch the shard answered at
//	16  u32      count: lanes shipped
//	20  u32      k = |δ|
//	24  count × i32 global ids, then k columns of count × f32: δ's dimensions only
//
// with the lanes in ascending (δ-sum, id) order as data.SumOver and
// data.SumOrder define it: the layout and order the merge compares in. The
// magic changes with the header layout, so a mixed-version pair fails the
// magic check instead of misreading offsets.
const (
	frameMagic      = "SKF2"
	frameHeaderSize = 24
)

// cuboidFrame is one shard's local S_δ as the merge consumes it: column j is
// the j-th dimension of δ, lane i of every slice is one point, and sums is
// non-decreasing.
type cuboidFrame struct {
	epoch uint64
	wire  int // encoded length
	ids   []int32
	cols  [][]float32
	sums  []float32
}

// encodeCuboidFrame encodes the members ids[i] = point(i) (full coordinates)
// as the frame answering δ.
func encodeCuboidFrame(delta mask.Mask, epoch uint64, ids []int32, point func(i int) []float32) []byte {
	dims := mask.Dims(delta)
	n, k := len(ids), len(dims)
	sums := make([]float32, n)
	for i := range sums {
		sums[i] = data.SumOver(point(i), dims)
	}
	p := make([]byte, frameHeaderSize+4*n*(k+1))
	copy(p, frameMagic)
	binary.LittleEndian.PutUint32(p[4:], uint32(delta))
	binary.LittleEndian.PutUint64(p[8:], epoch)
	binary.LittleEndian.PutUint32(p[16:], uint32(n))
	binary.LittleEndian.PutUint32(p[20:], uint32(k))
	body := p[frameHeaderSize:]
	for lane, i := range data.SumOrder(sums, ids) {
		binary.LittleEndian.PutUint32(body[4*lane:], uint32(ids[i]))
		pt := point(int(i))
		for j, dim := range dims {
			binary.LittleEndian.PutUint32(body[4*(n*(j+1)+lane):], math.Float32bits(pt[dim]))
		}
	}
	return wal.AppendFrame(nil, p)
}

// decodeCuboidFrame decodes a /shard/cuboid body that must answer subspace
// want. It rejects — never repairs — anything but exactly one intact frame:
// a torn or CRC-failing envelope, trailing bytes, a foreign magic, another
// subspace, k ≠ |δ|, a length that is not header + count·(k+1) words, and
// lanes whose recomputed δ-sums decrease (a stop point would end a probe
// before a dominator: a silently wrong answer). It never panics, and
// allocates in proportion to len(body).
func decodeCuboidFrame(body []byte, want mask.Mask) (*cuboidFrame, error) {
	p, rest, err := wal.OpenFrame(body)
	if err != nil {
		return nil, fmt.Errorf("cuboid frame: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cuboid frame: %d bytes after the frame", len(rest))
	}
	if len(p) < frameHeaderSize || string(p[:4]) != frameMagic {
		return nil, fmt.Errorf("cuboid frame: not a %s payload (%d bytes)", frameMagic, len(p))
	}
	n := uint64(binary.LittleEndian.Uint32(p[16:]))
	k := uint64(binary.LittleEndian.Uint32(p[20:]))
	if got := mask.Mask(binary.LittleEndian.Uint32(p[4:])); got != want || k != uint64(mask.Count(want)) {
		return nil, fmt.Errorf("cuboid frame: answers subspace %d in %d columns, asked for %d", got, k, want)
	}
	if uint64(len(p)-frameHeaderSize) != 4*n*(k+1) { // n < 2³², k ≤ 32: no overflow
		return nil, fmt.Errorf("cuboid frame: %d payload bytes for %d lanes of %d columns", len(p), n, k)
	}
	f := &cuboidFrame{
		wire:  len(body),
		epoch: binary.LittleEndian.Uint64(p[8:]),
		ids:   make([]int32, n),
		cols:  make([][]float32, k),
		sums:  make([]float32, n),
	}
	buf := make([]float32, k*n)
	p = p[frameHeaderSize:]
	for i := range f.ids {
		f.ids[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	for j := range f.cols {
		p = p[4*n:]
		col := buf[uint64(j)*n : uint64(j+1)*n]
		f.cols[j] = col
		for i := range col {
			v := math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
			col[i] = v
			f.sums[i] += v // columns ascend, so this is data.SumOver's order
		}
	}
	prev := float32(math.Inf(-1))
	for i, s := range f.sums {
		if !(s >= prev) { // also rejects a NaN sum
			return nil, fmt.Errorf("cuboid frame: lane %d sums to %v after %v: not in δ-sum order", i, s, prev)
		}
		prev = s
	}
	return f, nil
}
