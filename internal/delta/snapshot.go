package delta

import (
	"slices"
	"sort"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/hashcube"
	"skycube/internal/mask"
)

// baseCube is one immutable generation of the materialised skycube: the
// HashCube a full build produced, plus the row↔logical-id mapping. The
// initial build's rows are the logical ids themselves; a compaction builds
// over the live subset, so its cube rows need translating.
type baseCube struct {
	h *hashcube.HashCube
	// ids maps cube row → logical id; nil means identity over [0, points).
	ids []int32
	// row maps logical id → cube row; nil with identity ids.
	row map[int32]int32
	// points is the number of live points the base was built over.
	points int
}

func (b *baseCube) id(row int32) int32 {
	if b.ids == nil {
		return row
	}
	return b.ids[row]
}

func (b *baseCube) rowOf(id int32) (int32, bool) {
	if b.ids == nil {
		if id >= 0 && int(id) < b.points {
			return id, true
		}
		return 0, false
	}
	r, ok := b.row[id]
	return r, ok
}

// Snapshot is one immutable MVCC epoch of the maintained skycube: the base
// cube plus the overlay the delta batches since the base accumulated —
// tombstones, per-point mask patches, freshly inserted points' masks, and
// exact per-cuboid overrides from delete-triggered recomputes. Readers pin
// an epoch by holding the pointer; every query method is safe for
// unlimited concurrent use and never blocks a writer.
//
// Query precedence, per subspace δ: a cuboid override (exact, re-derived
// by the delete batch) wins outright; otherwise the overlay masks adjust
// the base cube's answer. Overlay masks only ever grow (an insert can only
// dominate existing points in more subspaces); bits can only clear through
// a delete, and deletes always leave an exact override behind — which is
// what keeps the two overlay layers consistent.
//
// An insert sets a bit δ of an existing point only where it is itself a
// member of S_δ and the point's overlay mask did not have the bit: where
// the insert is dominated, its dominator dominates that point too
// (transitivity), so the bit is set already — in the base cube or the
// overlay — or δ is overridden and the bit is never read. patched is
// therefore not "everything some insert dominates the point in" but the
// bits an insert newly set, which is all Skyline and Membership read.
type Snapshot struct {
	epoch uint64
	d     int
	// ds is the logical dataset at this epoch: row i holds point id i,
	// dead rows included (they are masked by tomb / absence from base).
	ds   *data.Dataset
	base *baseCube
	// tomb holds ids deleted since the base was built.
	tomb map[int32]struct{}
	// added maps ids inserted since the base to their full B_{p∉S} masks.
	added map[int32]*bitset.Set
	// patched maps base ids to the dominated bits member inserts newly set.
	patched map[int32]*bitset.Set
	// cuboids holds exact skyline overrides for recomputed subspaces.
	cuboids map[mask.Mask][]int32
	live    int
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

// Alive reports whether id is a live point at this epoch.
func (s *Snapshot) Alive(id int32) bool {
	if id < 0 || int(id) >= s.ds.N {
		return false
	}
	if _, dead := s.tomb[id]; dead {
		return false
	}
	if _, ok := s.added[id]; ok {
		return true
	}
	_, ok := s.base.rowOf(id)
	return ok
}

// Point returns the coordinates of point id (read-only). Valid for dead
// points too; gate with Alive where liveness matters.
func (s *Snapshot) Point(id int32) []float32 { return s.ds.Point(int(id)) }

// OverlaySize is the number of overlay entries above the base — the
// compaction trigger's numerator and a serving-cost proxy.
func (s *Snapshot) OverlaySize() int {
	return len(s.tomb) + len(s.added) + len(s.patched) + len(s.cuboids)
}

// Skyline returns the ids of the points in S_δ at this epoch, ascending.
func (s *Snapshot) Skyline(delta mask.Mask) []int32 {
	if delta == 0 || int(delta) > mask.NumSubspaces(s.d) {
		return nil
	}
	if list, ok := s.cuboids[delta]; ok {
		if len(list) == 0 {
			return nil
		}
		out := make([]int32, len(list))
		copy(out, list)
		return out
	}
	bit := int(delta) - 1
	var out []int32
	for _, row := range s.base.h.Skyline(delta) {
		id := s.base.id(row)
		if _, dead := s.tomb[id]; dead {
			continue
		}
		if p, ok := s.patched[id]; ok && p.Test(bit) {
			continue
		}
		out = append(out, id)
	}
	for id, m := range s.added {
		if _, dead := s.tomb[id]; dead {
			continue
		}
		if !m.Test(bit) {
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
	if id < 0 || int(id) >= s.ds.N {
		return nil
	}
	if _, dead := s.tomb[id]; dead {
		return nil
	}
	total := mask.NumSubspaces(s.d)
	var member []mask.Mask
	if m, ok := s.added[id]; ok {
		for b := 0; b < total; b++ {
			if !m.Test(b) {
				member = append(member, mask.Mask(b+1))
			}
		}
	} else if row, ok := s.base.rowOf(id); ok {
		member = s.base.h.Membership(row)
		if p, ok := s.patched[id]; ok {
			kept := member[:0]
			for _, delta := range member {
				if !p.Test(int(delta) - 1) {
					kept = append(kept, delta)
				}
			}
			member = kept
		}
	}
	// Reconcile with cuboid overrides: for an overridden δ the recomputed
	// list is the sole authority (it is how points resurface after the
	// delete of their last dominator).
	if len(s.cuboids) > 0 {
		kept := member[:0]
		for _, delta := range member {
			if _, over := s.cuboids[delta]; !over {
				kept = append(kept, delta)
			}
		}
		member = kept
		for delta, list := range s.cuboids {
			if containsID(list, id) {
				member = append(member, delta)
			}
		}
		sort.Slice(member, func(a, b int) bool { return member[a] < member[b] })
	}
	if len(member) == 0 {
		return nil
	}
	return member
}

// IDCount returns a space measure of the snapshot: the base cube's stored
// ids plus the overlay entries layered on top.
func (s *Snapshot) IDCount() int {
	total := s.base.h.IDCount() + len(s.added) + len(s.patched)
	for _, list := range s.cuboids {
		total += len(list)
	}
	return total
}

// containsID reports whether a sorted id list contains id.
func containsID(list []int32, id int32) bool {
	i := sort.Search(len(list), func(k int) bool { return list[k] >= id })
	return i < len(list) && list[i] == id
}
