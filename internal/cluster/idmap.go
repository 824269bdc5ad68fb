package cluster

import (
	"fmt"
	"math"
	"sort"

	"skycube/internal/delta"
)

// IDSegment is one piece of a shard's id scheme; the updater's checkpointed
// state holds the list.
type IDSegment = delta.IDSegment

// SplitBlockBase is the first global id of the region reserved for
// split-minted insert blocks. Ids below it belong to the original partition
// arithmetic (round-robin or range); each split cutover seals its child
// with a stride-1 block of splitBlockSize ids starting at or above it, so
// sealed blocks can never collide with the parent's continuing sequence in
// any bounded deployment.
const SplitBlockBase = 1 << 28

// splitBlockSize is the id capacity of one sealed split block.
const splitBlockSize = 1 << 20

// idScheme is a shard's full piecewise id mapping, ordered by Start. It is
// immutable once built — mutation is copy-and-swap (see shardGroup.scheme).
type idScheme struct {
	segs []IDSegment
}

// newIDScheme builds the single-segment scheme of a plain partition.
// Stride 0 normalises to 1 (a single-shard cluster).
func newIDScheme(base, stride int) *idScheme {
	if stride == 0 {
		stride = 1
	}
	return &idScheme{segs: []IDSegment{{Start: 0, Base: int32(base), Stride: int32(stride)}}}
}

// schemeFromSegments validates and adopts an explicit segment list (from
// the updater's restored state, /shard/info or a seal response).
func schemeFromSegments(segs []IDSegment) (*idScheme, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("cluster: empty id-segment list")
	}
	out := append([]IDSegment(nil), segs...)
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	if out[0].Start != 0 {
		return nil, fmt.Errorf("cluster: id segments must start at local row 0, got %d", out[0].Start)
	}
	for i, seg := range out {
		if seg.Stride <= 0 || seg.Base < 0 || seg.Start < 0 {
			return nil, fmt.Errorf("cluster: bad id segment %+v", seg)
		}
		if i > 0 && seg.Start == out[i-1].Start {
			return nil, fmt.Errorf("cluster: duplicate id-segment start %d", seg.Start)
		}
	}
	return &idScheme{segs: out}, nil
}

// segEnd returns the exclusive local-row bound of segment i.
func (s *idScheme) segEnd(i int) int32 {
	if i+1 < len(s.segs) {
		return s.segs[i+1].Start
	}
	return math.MaxInt32
}

// global maps a local row to its global id.
func (s *idScheme) global(local int32) int32 {
	for i := len(s.segs) - 1; i >= 0; i-- {
		if local >= s.segs[i].Start {
			seg := s.segs[i]
			return seg.Base + (local-seg.Start)*seg.Stride
		}
	}
	// Unreachable: segment 0 starts at local row 0 and rows are >= 0.
	return local
}

// localOf inverts global: the local row carrying that global id, if any
// segment claims it. Newer segments are tried first so a sealed high block
// wins over an open-ended earlier arithmetic that would also reach the id.
func (s *idScheme) localOf(global int32) (int32, bool) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		seg := s.segs[i]
		off := global - seg.Base
		if off < 0 || off%seg.Stride != 0 {
			continue
		}
		local := seg.Start + off/seg.Stride
		if local >= seg.Start && local < s.segEnd(i) {
			return local, true
		}
	}
	return 0, false
}

// primary returns the first segment's arithmetic — the shard's original
// partition mapping, reported for backward compatibility in /shard/info.
func (s *idScheme) primary() (base, stride int) {
	return int(s.segs[0].Base), int(s.segs[0].Stride)
}

// sealed reports whether the scheme carries a split-minted block.
func (s *idScheme) sealed() bool {
	return s.segs[len(s.segs)-1].Base >= SplitBlockBase
}

// seal returns a copy of the scheme extended with a fresh stride-1 block
// for rows inserted from nextLocal on.
func (s *idScheme) seal(nextLocal, freshBase int32) (*idScheme, error) {
	last := s.segs[len(s.segs)-1]
	if nextLocal <= last.Start {
		return nil, fmt.Errorf("cluster: seal at local row %d, but a segment already starts at %d",
			nextLocal, last.Start)
	}
	if freshBase < SplitBlockBase {
		return nil, fmt.Errorf("cluster: seal base %d below the split block region %d", freshBase, SplitBlockBase)
	}
	segs := append(append([]IDSegment(nil), s.segs...),
		IDSegment{Start: nextLocal, Base: freshBase, Stride: 1})
	return &idScheme{segs: segs}, nil
}

// segments returns a defensive copy for JSON surfaces.
func (s *idScheme) segments() []IDSegment {
	return append([]IDSegment(nil), s.segs...)
}

// rangePartitioned reports the read-only stride-1 range layout: the
// ORIGINAL partition arithmetic has stride 1, meaning shard s's next local
// row would mint exactly shard s+1's base id. Sealed split blocks are also
// stride 1 but live in their own reserved region, so they do not count.
func (s *idScheme) rangePartitioned() bool {
	return s.segs[0].Stride == 1 && s.segs[0].Base < SplitBlockBase
}
