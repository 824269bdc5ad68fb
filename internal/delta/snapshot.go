package delta

import (
	"slices"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/hashcube"
	"skycube/internal/mask"
)

// baseCube is one immutable generation of the materialised skycube: the
// HashCube a full build produced, the same masks by row, plus the
// row↔logical-id mapping. The initial build's rows are the logical ids
// themselves; a compaction builds over the live subset, so its cube rows
// need translating.
type baseCube struct {
	h *hashcube.HashCube
	// masks is h.RowMasks: row r's B_{p∉S} as the base was built, stride
	// words from r*stride — what makes a point's first change O(words).
	masks  []uint64
	stride int
	// ids maps cube row → logical id; nil means identity over [0, points).
	ids []int32
	// row maps logical id → cube row, -1 for an id the base does not hold;
	// nil with identity ids.
	row []int32
	// points is the number of live points the base was built over.
	points int
}

// mask returns the words of row's B_{p∉S} as the base was built (read-only).
func (b *baseCube) mask(row int32) []uint64 {
	return b.masks[int(row)*b.stride:][:b.stride]
}

func (b *baseCube) id(row int32) int32 {
	if b.ids == nil {
		return row
	}
	return b.ids[row]
}

func (b *baseCube) rowOf(id int32) (int32, bool) {
	if id < 0 {
		return 0, false
	}
	if b.ids == nil {
		return id, int(id) < b.points
	}
	if int(id) >= len(b.row) || b.row[id] < 0 {
		return 0, false
	}
	return b.row[id], true
}

// Snapshot is one immutable MVCC epoch of the maintained skycube: the base
// cube plus what the delta batches since the base changed — tombstones, and
// the exact current B_{p∉S} of every point whose mask is not the base's.
// Readers pin an epoch by holding the pointer; every query method is safe
// for unlimited concurrent use and never blocks a writer.
//
// A live point is described in one place: by its entry in masks if it has
// one, by the base otherwise. The invariant is that either is exact at this
// epoch.
type Snapshot struct {
	epoch uint64
	d     int
	// ds is the logical dataset at this epoch: row i holds point id i,
	// dead rows included (they are masked by tomb / absence from base).
	ds   *data.Dataset
	base *baseCube
	// tomb holds ids deleted since the base was built.
	tomb map[int32]struct{}
	// masks holds every live point inserted since the base, and every live
	// base point whose mask differs from the one the base was built with.
	masks map[int32]*bitset.Set
	live  int
}

// Epoch returns the snapshot's MVCC epoch (1 is the initial build).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Dims returns the data dimensionality.
func (s *Snapshot) Dims() int { return s.d }

// MaxLevel returns the materialised level bound; incremental maintenance
// always materialises the full skycube.
func (s *Snapshot) MaxLevel() int { return s.d }

// Live returns the number of live points at this epoch.
func (s *Snapshot) Live() int { return s.live }

// Len returns the logical id bound: ids in [0, Len) existed at some epoch
// ≤ this one, though some may be dead.
func (s *Snapshot) Len() int { return s.ds.N }

// mask returns the words of a live point's exact B_{p∉S} at this epoch (read-
// only; bitset.View wraps them), nil for an id that is not alive: tombstoned,
// or neither overlaid nor in the base.
func (s *Snapshot) mask(id int32) []uint64 {
	if _, dead := s.tomb[id]; dead {
		return nil
	}
	if m, ok := s.masks[id]; ok {
		return m.Words64()
	}
	if row, ok := s.base.rowOf(id); ok {
		return s.base.mask(row)
	}
	return nil
}

// Alive reports whether id is a live point at this epoch.
func (s *Snapshot) Alive(id int32) bool { return s.mask(id) != nil }

// Point returns the coordinates of point id (read-only). Valid for dead
// points too; gate with Alive where liveness matters.
func (s *Snapshot) Point(id int32) []float32 { return s.ds.Point(int(id)) }

// OverlaySize is the number of overlay entries above the base — the
// compaction trigger's numerator and a serving-cost proxy.
func (s *Snapshot) OverlaySize() int { return len(s.tomb) + len(s.masks) }

// Skyline returns the ids of the points in S_δ at this epoch, ascending.
func (s *Snapshot) Skyline(delta mask.Mask) []int32 {
	if delta == 0 || int(delta) > mask.NumSubspaces(s.d) {
		return nil
	}
	var out []int32
	for _, row := range s.base.h.Skyline(delta) {
		id := s.base.id(row)
		if _, dead := s.tomb[id]; dead {
			continue
		}
		if _, overlaid := s.masks[id]; !overlaid {
			out = append(out, id)
		}
	}
	for id, m := range s.masks {
		if !m.Test(int(delta) - 1) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Membership returns the subspaces in which id is a skyline member at this
// epoch, ascending — the inverse query of Skyline, consistent with it for
// every (id, δ) pair.
func (s *Snapshot) Membership(id int32) []mask.Mask {
	words := s.mask(id)
	if words == nil {
		return nil
	}
	m := bitset.View(words, mask.NumSubspaces(s.d))
	var member []mask.Mask
	for b := m.NextClear(0); b >= 0; b = m.NextClear(b + 1) {
		member = append(member, mask.Mask(b+1))
	}
	return member
}

// IDCount returns a space measure of the snapshot: the base cube's stored
// ids plus the overlay masks layered on top.
func (s *Snapshot) IDCount() int { return s.base.h.IDCount() + len(s.masks) }
