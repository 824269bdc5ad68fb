package delta

import (
	"slices"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/hashcube"
	"skycube/internal/mask"
)

// baseCube is one immutable generation of the materialised skycube: the
// HashCube a full build produced or a compaction folded, the same masks by
// row, plus the row↔logical-id mapping. The initial build's rows are the
// logical ids themselves; a compaction folds the live subset, so its cube
// rows need translating.
type baseCube struct {
	h *hashcube.HashCube
	// masks is h.RowMasks: row r's B_{p∉S} as the base was made, stride
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

// mask returns the words of row's B_{p∉S} as the base was made (read-only).
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

// The overlay is indexed by id in chunks of chunkSize consecutive ids. A
// chunk is shared by every epoch that did not write into it: a flush clones
// a chunk the first time it writes one of its slots, and copies only the
// chunk directory besides, so publishing an epoch costs what its batch
// touched, not the size of the overlay.
const (
	chunkBits = 7
	chunkSize = 1 << chunkBits
)

// tombstone fills the overlay slot of an id deleted since the base.
var tombstone = new(bitset.Set)

// chunk holds the overlay slots of chunkSize consecutive ids: nil for an id
// the base describes (or that does not exist), tombstone, or the id's exact
// B_{p∉S}. epoch is the epoch the chunk was written for; a later epoch
// clones it before writing.
type chunk struct {
	epoch uint64
	slot  [chunkSize]*bitset.Set
}

// overlay is what the delta batches since the base changed, indexed by id.
type overlay struct {
	chunks []*chunk
	// tombs and masks count the tombstone and mask slots.
	tombs, masks int
}

// slot returns id's overlay slot: nil, tombstone or a mask.
func (o *overlay) slot(id int32) *bitset.Set {
	c := uint(uint32(id)) >> chunkBits
	if c >= uint(len(o.chunks)) || o.chunks[c] == nil {
		return nil
	}
	return o.chunks[c].slot[id&(chunkSize-1)]
}

// next returns the overlay an epoch after o starts from: o's slots, every
// chunk still shared.
func (o *overlay) next() overlay {
	return overlay{chunks: slices.Clone(o.chunks), tombs: o.tombs, masks: o.masks}
}

// put sets id's slot to m (tombstone or a mask) in the overlay of the epoch
// being built, cloning the chunk if an earlier epoch shares it. Writer only,
// before the epoch is published.
func (o *overlay) put(epoch uint64, id int32, m *bitset.Set) {
	c := int(id) >> chunkBits
	if c >= len(o.chunks) {
		o.chunks = append(o.chunks, make([]*chunk, c+1-len(o.chunks))...)
	}
	ch := o.chunks[c]
	switch {
	case ch == nil:
		ch = &chunk{epoch: epoch}
		o.chunks[c] = ch
	case ch.epoch != epoch:
		cp := *ch
		cp.epoch = epoch
		ch = &cp
		o.chunks[c] = ch
	}
	s := &ch.slot[id&(chunkSize-1)]
	if *s != nil {
		o.masks-- // a changed mask, or a victim's: tombstones are final
	}
	if m == tombstone {
		o.tombs++
	} else {
		o.masks++
	}
	*s = m
}

// Snapshot is one immutable MVCC epoch of the maintained skycube: the base
// cube plus what the delta batches since the base changed — tombstones, and
// the exact current B_{p∉S} of every point whose mask is not the base's.
// Readers pin an epoch by holding the pointer; every query method is safe
// for unlimited concurrent use and never blocks a writer.
//
// A live point is described in one place: by its overlay mask if it has
// one, by the base otherwise. The invariant is that either is exact at this
// epoch.
type Snapshot struct {
	epoch uint64
	d     int
	// ds is the logical dataset at this epoch: row i holds point id i,
	// dead rows included (they are masked by tombstones / absence from base).
	ds   *data.Dataset
	base *baseCube
	// ov holds a tombstone for every id deleted since the base was built, and
	// a mask for every live point inserted since the base and every live base
	// point whose mask differs from the one the base was built with.
	ov   overlay
	live int
	// from is the epoch this one was made from, 0 when there was none (the
	// initial build, a restore); changed has bit δ−1 set for exactly the
	// subspaces whose skyline differs between the two (nil when from is 0).
	from    uint64
	changed *bitset.Set
}

// Epoch returns the snapshot's MVCC epoch (1 is the initial build).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Transition reports how the snapshot was made: from is the epoch it was
// made from, and changed (read-only) has bit δ−1 set for exactly the
// subspaces δ whose Skyline differs between the two. A flush's set is the
// memberships of its member victims and of its member inserts; a
// compaction's is empty. from is 0, and changed nil, for a snapshot made
// from no earlier epoch: the initial build and a restore.
func (s *Snapshot) Transition() (from uint64, changed *bitset.Set) { return s.from, s.changed }

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
	switch m := s.ov.slot(id); m {
	case nil:
	case tombstone:
		return nil
	default:
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
func (s *Snapshot) OverlaySize() int { return s.ov.tombs + s.ov.masks }

// Skyline returns the ids of the points in S_δ at this epoch, ascending: the
// base's members the overlay leaves alone, merged with the overlay's.
func (s *Snapshot) Skyline(delta mask.Mask) []int32 {
	if delta == 0 || int(delta) > mask.NumSubspaces(s.d) {
		return nil
	}
	// Filter in place: HashCube.Skyline's slice is fresh, and the write
	// index never passes the read index.
	rows := s.base.h.Skyline(delta)
	base := rows[:0]
	for _, row := range rows {
		if id := s.base.id(row); s.ov.slot(id) == nil {
			base = append(base, id)
		}
	}
	bit := int(delta) - 1
	var over []int32
	for c, ch := range s.ov.chunks {
		if ch == nil {
			continue
		}
		for i, m := range &ch.slot {
			if m != nil && m != tombstone && !m.Test(bit) {
				over = append(over, int32(c<<chunkBits+i))
			}
		}
	}
	if len(base) == 0 {
		return over // nil when neither holds a member
	}
	if len(over) == 0 {
		return base
	}
	out := make([]int32, 0, len(base)+len(over))
	for len(base) > 0 && len(over) > 0 {
		if base[0] < over[0] {
			out, base = append(out, base[0]), base[1:]
		} else {
			out, over = append(out, over[0]), over[1:]
		}
	}
	return append(append(out, base...), over...)
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
func (s *Snapshot) IDCount() int { return s.base.h.IDCount() + s.ov.masks }
