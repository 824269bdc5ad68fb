package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"skycube/internal/bitset"
	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
	"skycube/internal/obs"
)

// The tests in this file aim at the edges of the transitivity lemma the
// insert path rests on (package comment): every flushed snapshot is held
// against the naive oracle on every subspace and id, and its overlay against
// the package's one invariant (assertOverlayExact).

// lemmaRig is an updater plus the test's own record of the live ids.
type lemmaRig struct {
	t    *testing.T
	u    *Updater
	reg  *obs.Registry
	live []int32
}

func newLemmaRig(t *testing.T, ds *data.Dataset) *lemmaRig {
	reg := obs.NewRegistry()
	u := NewUpdater(ds, Options{Threads: 3, Metrics: obs.NewDeltaMetrics(reg)})
	t.Cleanup(u.Close)
	r := &lemmaRig{t: t, u: u, reg: reg, live: make([]int32, ds.N)}
	for i := range r.live {
		r.live[i] = int32(i)
	}
	verifySnapshot(t, u.Current(), r.live)
	return r
}

func (r *lemmaRig) insert(p ...float32) int32 {
	r.t.Helper()
	id, err := r.u.Insert(p)
	if err != nil {
		r.t.Fatal(err)
	}
	r.live = append(r.live, id)
	return id
}

func (r *lemmaRig) delete(id int32) {
	r.t.Helper()
	if err := r.u.Delete(id); err != nil {
		r.t.Fatal(err)
	}
	for i, v := range r.live {
		if v == id {
			r.live = append(r.live[:i], r.live[i+1:]...)
			return
		}
	}
	r.t.Fatalf("delete of %d: not in the test's live record", id)
}

// members reads skycube_delta_member_inserts_total.
func (r *lemmaRig) members() int {
	return int(r.reg.CounterM("skycube_delta_member_inserts_total", "").Value())
}

// flush applies the batch and checks the snapshot against the oracle, its
// overlay against the invariant and the outsiders against theirs.
func (r *lemmaRig) flush() *Snapshot {
	r.t.Helper()
	prev := r.u.Current()
	snap := r.u.Flush()
	verifySnapshot(r.t, snap, sortedIDs(r.live))
	assertOverlayExact(r.t, prev, snap, r.live)
	assertOutsidersVouched(r.t, r.u, r.live)
	assertListsKept(r.t, r.u)
	return snap
}

// assertOutsidersVouched checks by brute force what lets every pass skip the
// outsiders: each one still listed is live, not loose, and has a live point
// strictly below it on every dimension. The lanes ascend by id and hold the
// negated coordinates of their points.
func assertOutsidersVouched(t *testing.T, u *Updater, live []int32) {
	t.Helper()
	ids := outsiderIDs(u)
	if !slices.IsSorted(ids) {
		t.Fatalf("outsiders are not in id order: %v", ids)
	}
	for _, b := range u.outsiders.Blocks {
		for lane := 0; lane < b.N; lane++ {
			for j, col := range b.Cols {
				if col[lane] != -u.point(b.Rows[lane])[j] {
					t.Fatalf("outsider lane %d holds %v on dimension %d, its point %v", lane, col[lane], j, u.point(b.Rows[lane]))
				}
			}
		}
	}
	for _, q := range ids {
		if _, loose := looseOf(u)[q]; loose {
			t.Fatalf("%d is both an outsider and loose", q)
		}
		if u.isDead(q) {
			t.Fatalf("outsider %d is dead but its lane is alive", q)
		}
		if !slices.ContainsFunc(live, func(p int32) bool { return strictlyDominatesFull(u.point(p), u.point(q)) }) {
			t.Fatalf("outsider %d %v is not loose though no live point strictly dominates it", q, u.point(q))
		}
	}
}

// outsiderIDs lists the ids of the alive outsider lanes, in lane order.
func outsiderIDs(u *Updater) []int32 {
	var ids []int32
	for _, b := range u.outsiders.Blocks {
		for lane := 0; lane < b.N; lane++ {
			if b.IsAlive(lane) {
				ids = append(ids, b.Rows[lane])
			}
		}
	}
	return ids
}

// looseOf lists u's loose points: the base points beyond the tree that are
// not outsiders.
func looseOf(u *Updater) map[int32]struct{} {
	base := u.Current().base
	loose := map[int32]struct{}{}
	for _, id := range u.extras {
		if _, inBase := base.rowOf(id); inBase {
			loose[id] = struct{}{}
		}
	}
	return loose
}

// masksOf lists the overlay masks of s by id.
func masksOf(s *Snapshot) map[int32]*bitset.Set {
	masks := map[int32]*bitset.Set{}
	for c, ch := range s.ov.chunks {
		if ch == nil {
			continue
		}
		for i, m := range ch.slot {
			if m != nil && m != tombstone {
				masks[int32(c<<chunkBits+i)] = m
			}
		}
	}
	return masks
}

// assertListsKept rebuilds from the current snapshot what every batch keeps
// up to date, and checks u's copy: extras, offTree and bare — the live points
// beyond the tree and outsiders, those of them with an overlay mask not
// closed, those with none — and ties, in id order; the front, the full-space
// skyline strongest first, with each lane's coordinate sum.
func assertListsKept(t *testing.T, u *Updater) {
	t.Helper()
	snap := u.Current()
	outside := map[int32]bool{}
	for _, id := range outsiderIDs(u) {
		outside[id] = true
	}
	var extras, offTree, bare, ties []int32
	for id := int32(0); id < int32(snap.Len()); id++ {
		words := snap.mask(id)
		if words == nil {
			continue
		}
		if u.classOf(words) == tied {
			ties = append(ties, id)
		}
		if u.posOf(id) >= 0 || outside[id] {
			continue
		}
		extras = append(extras, id)
		switch {
		case snap.ov.slot(id) == nil:
			bare = append(bare, id)
		case u.classOf(words) != closed:
			offTree = append(offTree, id)
		}
	}
	for _, l := range []struct {
		name      string
		got, want []int32
	}{{"extras", u.extras, extras}, {"offTree", u.offTree, offTree}, {"bare", u.bare, bare}, {"ties", u.ties, ties}} {
		if !slices.Equal(l.got, l.want) {
			t.Fatalf("epoch %d: %s %v, rebuilt %v", snap.epoch, l.name, l.got, l.want)
		}
	}
	for i, id := range u.front.ids {
		if u.front.sums[i] != u.sum(id) {
			t.Fatalf("epoch %d: front holds sum %v for %d, its point %v", snap.epoch, u.front.sums[i], id, u.sum(id))
		}
	}
	if want := u.strongestFirst(snap.Skyline(mask.Full(snap.d))); !slices.Equal(u.front.ids, want) {
		t.Fatalf("epoch %d: front %v, full-space skyline strongest first %v", snap.epoch, u.front.ids, want)
	}
	var lanes []int32
	for _, b := range u.kept().Blocks {
		for i := 0; i < b.N; i++ {
			if !b.IsAlive(i) || b.Sums[i] != u.front.sums[len(lanes)] {
				t.Fatalf("epoch %d: kept lane %d of %d is dead or holds another sum", snap.epoch, len(lanes), b.Rows[i])
			}
			lanes = append(lanes, b.Rows[i])
		}
	}
	if !slices.Equal(lanes, u.front.ids) {
		t.Fatalf("epoch %d: kept lanes %v, front %v", snap.epoch, lanes, u.front.ids)
	}
}

// strictlyDominatesFull reports a < b on every dimension: the scalar oracle
// of the promotion walk.
func strictlyDominatesFull(a, b []float32) bool {
	for j := range a {
		if a[j] >= b[j] {
			return false
		}
	}
	return true
}

// assertOverlayExact checks cur's overlay, one flush after prev over the
// same base (no compaction in between): (a) every entry of masks belongs to
// a live point and is that point's brute-force B_{p∉S} over the live set;
// (b) while nothing has been deleted since the base, a base point has an
// entry only if it differs from the base's mask — an entry is created only
// when a bit changes, though a delete and a later insert may bring one back
// to the base value; (c) a flush without victims only sets bits: every entry
// of prev is still there and a subset of cur's.
func assertOverlayExact(t *testing.T, prev, cur *Snapshot, live []int32) {
	t.Helper()
	if prev.base != cur.base {
		t.Fatalf("epochs %d and %d are over different bases", prev.epoch, cur.epoch)
	}
	total := mask.NumSubspaces(cur.d)
	for id, m := range masksOf(cur) {
		if !cur.Alive(id) {
			t.Fatalf("epoch %d: overlay mask for %d, which is not alive", cur.epoch, id)
		}
		want := bitset.New(total)
		for delta := mask.Mask(1); int(delta) <= total; delta++ {
			if slices.ContainsFunc(live, func(q int32) bool {
				return q != id && dom.DominatesIn(cur.Point(q), cur.Point(id), delta)
			}) {
				want.Set(int(delta) - 1)
			}
		}
		if !slices.Equal(m.Words64(), want.Words64()) {
			t.Fatalf("epoch %d: overlay mask of %d is %b, brute force %b", cur.epoch, id, m.Words64(), want.Words64())
		}
		if row, inBase := cur.base.rowOf(id); inBase && cur.ov.tombs == 0 &&
			slices.Equal(cur.base.mask(row), m.Words64()) {
			t.Fatalf("epoch %d: overlay entry for %d repeats its base mask", cur.epoch, id)
		}
	}
	if cur.ov.tombs != prev.ov.tombs {
		return
	}
	for id, was := range masksOf(prev) {
		now, ok := masksOf(cur)[id]
		if !ok {
			t.Fatalf("epoch %d: overlay mask of %d vanished", cur.epoch, id)
		}
		lost := was.Clone()
		lost.AndNot(now)
		if lost.Count() != 0 {
			t.Fatalf("epoch %d: overlay mask of %d lost %d bits in a flush without victims", cur.epoch, id, lost.Count())
		}
	}
}

// gridDataset draws coordinates from {0..levels-1}: ties on every subspace
// and exact duplicates are the rule, not the exception.
func gridDataset(rng *rand.Rand, n, d, levels int) *data.Dataset {
	vals := make([]float32, n*d)
	for i := range vals {
		vals[i] = float32(rng.Intn(levels))
	}
	return data.New(d, vals)
}

// (a) Ties: inserts equal to live members on some or all dimensions.
func TestLemmaTiesAndDuplicates(t *testing.T) {
	for _, d := range []int{3, 5} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 * d)))
			ds := gridDataset(rng, 160, d, 4)
			r := newLemmaRig(t, ds)
			full := mask.Full(d)
			for round := 0; round < 4; round++ {
				// Exact duplicates of full-space skyline members (tree
				// points): equal on every δ, so neither dominates.
				sky := r.u.Current().Skyline(full)
				for k := 0; k < 3; k++ {
					src := r.u.Current().Point(sky[rng.Intn(len(sky))])
					r.insert(append([]float32(nil), src...)...)
				}
				// A member lowered on one dimension: ties it everywhere else.
				src := r.u.Current().Point(sky[rng.Intn(len(sky))])
				p := append([]float32(nil), src...)
				p[rng.Intn(d)]--
				r.insert(p...)
				// And fresh grid points, themselves full of ties.
				extra := gridDataset(rng, 12, d, 4)
				for i := 0; i < extra.N; i++ {
					r.insert(extra.Point(i)...)
				}
				if round == 2 {
					r.delete(sky[0])
				}
				r.flush()
			}
		})
	}
}

// (b) A same-batch chain p₁ ≻ p₂ ≻ q: phase A leaves both inserts open,
// phase B closes p₂ under p₁, and p₁ alone must patch q.
func TestLemmaSameBatchChain(t *testing.T) {
	ds := data.FromRows([][]float32{
		{5, 5, 5}, // q: the only point the chain dominates
		{0, 9, 9}, {9, 0, 9}, {9, 9, 0},
		{1, 8, 9}, {8, 9, 1}, {9, 1, 8},
	})
	r := newLemmaRig(t, ds)
	p2 := r.insert(4, 4, 4)
	p1 := r.insert(3, 3, 3)
	snap := r.flush()
	if got := r.members(); got != 1 {
		t.Fatalf("member inserts = %d, want 1 (p1 alone)", got)
	}
	if m := snap.Membership(p2); m != nil {
		t.Fatalf("p2 is dominated by p1 everywhere, got membership %v", m)
	}
	if m := snap.Membership(0); m != nil {
		t.Fatalf("q is dominated by p1 everywhere, got membership %v", m)
	}
	if got := snap.Skyline(mask.Full(3)); !reflect.DeepEqual(got, []int32{1, 2, 3, 4, 5, 6, p1}) {
		t.Fatalf("full-space skyline %v", got)
	}
	// The chain's tail arrives a batch later: closed in phase A by p1, now
	// an earlier-added point, and teaches nobody.
	r.insert(4.5, 4.5, 4.5)
	r.flush()
	if got := r.members(); got != 1 {
		t.Fatalf("member inserts = %d after a dominated insert, want 1", got)
	}
	// p1 deleted: p2 resurfaces with bits cleared, and a new insert between
	// them must set them again — p2 is off the tree, an overlay point.
	r.delete(p1)
	r.flush()
	r.insert(3.5, 3.5, 3.5)
	r.flush()
}

// (c) Delete and insert in one batch, where the victim was the insert's
// only dominator in δ — and where it was an existing point's.
func TestLemmaDeleteThenInsertOneBatch(t *testing.T) {
	rows := [][]float32{
		{1, 1}, // v: dominates q and, were it alive, the inserts below
		{2, 2}, // q: v is its only dominator in the full space
		{0, 10}, {10, 0}, {0.5, 6}, {6, 0.5},
	}
	t.Run("victim was the insert's dominator", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(0)
		p := r.insert(1.5, 1.5) // free of v, it is a member and dominates q
		snap := r.flush()
		if got := snap.Skyline(mask.Full(2)); !reflect.DeepEqual(got, []int32{2, 3, 4, 5, p}) {
			t.Fatalf("full-space skyline %v", got)
		}
		if got := r.members(); got != 1 {
			t.Fatalf("member inserts = %d, want 1", got)
		}
	})
	t.Run("victim was q's dominator", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(0)
		r.insert(3, 3) // dominated by q, which the delete just freed
		snap := r.flush()
		if got := snap.Skyline(mask.Full(2)); !reflect.DeepEqual(got, []int32{1, 2, 3, 4, 5}) {
			t.Fatalf("full-space skyline %v", got)
		}
		if got := r.members(); got != 0 {
			t.Fatalf("member inserts = %d, want 0", got)
		}
		// Next batch, over the mask the delete cleared: q falls to an insert.
		r.insert(1.75, 1.75)
		r.flush()
	})
	t.Run("both at once", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(0)
		r.insert(1.5, 1.5)
		r.insert(1.5, 3) // ties the first insert on x: it loses {y} and {x,y} to it, not {x}
		r.insert(3, 3)
		r.flush()
	})
}

// (d) Random mixed batches at d = 8 (255 subspaces, four mask words) and
// d = 4, with the overlay check TestRandomMixedBatchesMatchNaive lacks.
func TestLemmaRandomBatchesWideAndNarrow(t *testing.T) {
	for _, d := range []int{4, 8} {
		for _, dist := range []gen.Distribution{gen.Independent, gen.Anticorrelated} {
			t.Run(fmt.Sprintf("%v/d=%d", dist, d), func(t *testing.T) {
				seed := int64(100*d) + int64(dist)
				r := newLemmaRig(t, gen.Synthetic(dist, 140, d, seed))
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < 4; round++ {
					extra := gen.Synthetic(dist, 30, d, seed+int64(round)+1)
					for i := 0; i < extra.N; i++ {
						r.insert(extra.Point(i)...)
					}
					if round > 0 {
						for k := 0; k < 6; k++ {
							r.delete(r.live[rng.Intn(len(r.live))])
						}
					}
					r.flush()
				}
				if r.members() == 0 {
					t.Fatal("no insert ever entered a skyline: the reverse pass was not exercised")
				}
			})
		}
	}
}

// (e) An outsider the tree never held is promoted to loose by the delete of
// its vouching dominator, resurfaces with an overlay mask of its own, and is
// then dominated by an insert: the reverse pass must reach it off the tree.
func TestLemmaLooseOutsiderThenDominated(t *testing.T) {
	ds := data.FromRows([][]float32{
		{1, 1, 1}, // a: strictly dominates o in the full space
		{2, 2, 2}, // o: outside S⁺, vouched for by a alone
		{0, 9, 9}, {9, 0, 9}, {9, 9, 0},
	})
	r := newLemmaRig(t, ds)
	if !slices.Contains(outsiderIDs(r.u), 1) {
		t.Fatal("o is not an outsider of the base")
	}
	r.delete(0)
	snap := r.flush()
	if _, loose := looseOf(r.u)[1]; !loose {
		t.Fatal("o was not promoted to loose")
	}
	if m := snap.Membership(1); len(m) == 0 {
		t.Fatal("o did not resurface after its only dominator died")
	}
	// o is now a dominance source the tree does not vouch for.
	r.insert(3, 3, 3)
	r.flush()
	if got := r.members(); got != 0 {
		t.Fatalf("member inserts = %d, want 0 (o dominates the insert)", got)
	}
	// An insert dominates o in every subspace o had resurfaced in.
	r.insert(1.5, 1.5, 1.5)
	snap = r.flush()
	if m := snap.Membership(1); m != nil {
		t.Fatalf("o is dominated everywhere, got membership %v", m)
	}
}

// TestFlushCostFollowsMembers pins what the lemma buys on the benchmark's
// narrow shape: of 1 000 anticorrelated d = 4 inserts over 50 000 points
// few enter any skyline, and the flush allocates for those, not for
// 1 000 × |tree| patches (≈ 77–97 MB before).
func TestFlushCostFollowsMembers(t *testing.T) {
	const d, n, batch = 4, 50000, 1000
	reg := obs.NewRegistry()
	u := NewUpdater(gen.Synthetic(gen.Anticorrelated, n, d, 20170514),
		Options{Threads: 2, Metrics: obs.NewDeltaMetrics(reg)})
	defer u.Close()
	extra := gen.Synthetic(gen.Anticorrelated, batch, d, 99991)
	for i := 0; i < extra.N; i++ {
		if _, err := u.Insert(extra.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	snap := u.Flush()
	runtime.ReadMemStats(&after)

	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 8 {
		t.Errorf("flush of %d inserts allocated %.1f MB, want < 8", batch, mb)
	}
	members := reg.CounterM("skycube_delta_member_inserts_total", "").Value()
	t.Logf("flush of %d inserts: %v members, %.2f MB allocated",
		batch, members, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	if members < 1 || members >= 150 {
		t.Errorf("skycube_delta_member_inserts_total = %v, want in [1, 150)", members)
	}
	if got := reg.CounterM("skycube_delta_inserts_total", "").Value(); got != batch {
		t.Errorf("skycube_delta_inserts_total = %v, want %d", got, batch)
	}
	// The overlay against a fresh build over the same points.
	fresh := u.Compact()
	for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(d); delta++ {
		if got, want := snap.Skyline(delta), fresh.Skyline(delta); !reflect.DeepEqual(got, want) {
			t.Fatalf("δ=%b: overlay has %d members, fresh build %d", delta, len(got), len(want))
		}
	}
}

// TestPromotionFollowsOrphans pins what the promotion lemma buys on the same
// shape: 25 deletes, 5 of them members of the full-space skyline, strictly
// dominate thousands of the ≈ 48 600 outsiders between them, and all but a
// handful of those still have a surviving member above them (≈ 11 000 turned
// loose when any non-outsider victim above an outsider promoted it).
func TestPromotionFollowsOrphans(t *testing.T) {
	const d, n, batch, fromSkyline = 4, 50000, 25, 5
	reg := obs.NewRegistry()
	u := NewUpdater(gen.Synthetic(gen.Anticorrelated, n, d, 20170514),
		Options{Threads: 2, Metrics: obs.NewDeltaMetrics(reg)})
	defer u.Close()
	rng := rand.New(rand.NewSource(5))
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	victims := slices.Clone(u.Current().Skyline(mask.Full(d)))
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:fromSkyline]
	for len(victims) < batch {
		if id := int32(rng.Intn(n)); !slices.Contains(victims, id) {
			victims = append(victims, id)
		}
	}
	for _, id := range victims {
		if err := u.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	outsiders := len(outsiderIDs(u))
	snap := u.Flush()
	live = slices.DeleteFunc(live, func(id int32) bool { return slices.Contains(victims, id) })
	assertOutsidersVouched(t, u, live)

	promoted := reg.CounterM("skycube_delta_promoted_outsiders_total", "").Value()
	t.Logf("%d deletes over %d outsiders: %v promoted, %d words swept", batch, outsiders, promoted, u.vouches.Load())
	if promoted >= 64 || int(promoted) != len(looseOf(u)) {
		t.Errorf("skycube_delta_promoted_outsiders_total = %v with %d loose points, want the same and < 64",
			promoted, len(looseOf(u)))
	}
	if words := int64(fromSkyline * ((outsiders + 63) / 64)); u.vouches.Load() < words {
		t.Errorf("%d words swept, %d vouchers over %d outsiders: the walk did not run", u.vouches.Load(), fromSkyline, outsiders)
	}
	fresh := u.Compact()
	for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(d); delta++ {
		if got, want := snap.Skyline(delta), fresh.Skyline(delta); !reflect.DeepEqual(got, want) {
			t.Fatalf("δ=%b: overlay has %d members, fresh build %d", delta, len(got), len(want))
		}
	}
}

// TestPromotionWalkMatchesScalar holds the promotion walk's word sweeps to the
// scalar oracle on {0..3} grid bases, whose outsiders span tens of words and
// tie vouchers and kept members on some dimensions or all. Each round deletes
// every copy of one full-space skyline cell and a few random points, over a
// freshly compacted base: the flush must promote exactly the live outsiders a
// voucher strictly dominates and no kept member does. The walk is then fed
// arbitrary vouchers and a kept set of several blocks, and must mark exactly
// the lanes the oracle picks.
func TestPromotionWalkMatchesScalar(t *testing.T) {
	for _, d := range []int{3, 4} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			const n = 5000
			rng := rand.New(rand.NewSource(int64(40 + d)))
			u := NewUpdater(gridDataset(rng, n, d, 4), Options{Threads: 2})
			defer u.Close()
			full := mask.Full(d)
			below := func(ps []int32, q int32) bool {
				return slices.ContainsFunc(ps, func(p int32) bool { return strictlyDominatesFull(u.point(p), u.point(q)) })
			}
			live := make([]int32, n)
			for i := range live {
				live[i] = int32(i)
			}
			promoted := 0
			for round := 0; round < 5; round++ {
				snap := u.Compact()
				if words := (len(outsiderIDs(u)) + 63) / 64; words < 4 {
					t.Fatalf("round %d: the outsiders fill %d words, want several", round, words)
				}
				sky := snap.Skyline(full)
				cell := u.point(sky[rng.Intn(len(sky))])
				victims := slices.DeleteFunc(slices.Clone(live), func(id int32) bool { return !slices.Equal(u.point(id), cell) })
				for k := 0; k < 5; k++ {
					if id := live[rng.Intn(len(live))]; !slices.Contains(victims, id) {
						victims = append(victims, id)
					}
				}
				vouchers := slices.DeleteFunc(slices.Clone(sky), func(id int32) bool { return !slices.Contains(victims, id) })
				kept := slices.DeleteFunc(slices.Clone(sky), func(id int32) bool { return slices.Contains(victims, id) })
				var want []int32
				for _, q := range outsiderIDs(u) {
					if !slices.Contains(victims, q) && below(vouchers, q) && !below(kept, q) {
						want = append(want, q)
					}
				}
				for _, id := range victims {
					if err := u.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				live = slices.DeleteFunc(live, func(id int32) bool { return slices.Contains(victims, id) })
				u.Flush()
				got := make([]int32, 0, len(looseOf(u)))
				for id := range looseOf(u) {
					got = append(got, id)
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("round %d: %d vouchers, %d kept: promoted %v, oracle %v", round, len(vouchers), len(kept), got, want)
				}
				assertOutsidersVouched(t, u, live)
				t.Logf("round %d: %d victims, %d vouchers, %d kept: %d promoted", round, len(victims), len(vouchers), len(kept), len(got))
				promoted += len(got)
			}
			if promoted == 0 {
				t.Fatal("no round promoted an outsider")
			}

			// The walk alone, on vouchers and kept members of any kind.
			u.Compact()
			b := u.outsiders.Blocks[0]
			for trial := 0; trial < 20; trial++ {
				vouchers := make([]int32, 1+rng.Intn(6))
				for i := range vouchers {
					vouchers[i] = live[rng.Intn(len(live))]
				}
				kept := make([]int32, 1+rng.Intn(600))
				for i := range kept {
					kept[i] = live[rng.Intn(len(live))]
				}
				ks := data.NewBlockSet(d, data.DefaultBlockSize)
				for _, id := range u.strongestFirst(kept) {
					ks.Append(u.point(id), id, 0)
				}
				orphan := u.orphans(b, vouchers, ks)
				for lane := 0; lane < b.N; lane++ {
					q := b.Rows[lane]
					want := b.IsAlive(lane) && below(vouchers, q) && !below(kept, q)
					if got := orphan[lane>>6]>>uint(lane&63)&1 != 0; got != want {
						t.Fatalf("trial %d lane %d (%d %v): walk %v, oracle %v", trial, lane, q, u.point(q), got, want)
					}
				}
			}
		})
	}
}

// TestOverlayEntriesFollowChangedMasks pins what one overlay entry means on
// the benchmark's wide update shape: 100 inserts over 12 000 independent
// d = 6 points publish the 100 inserts' masks plus one entry per base point
// that actually lost a membership — not one per tree point a member insert
// dominates somewhere (1 060 entries before, 960 of them repeating the base).
func TestOverlayEntriesFollowChangedMasks(t *testing.T) {
	const d, n, batch = 6, 12000, 100
	u := NewUpdater(gen.Synthetic(gen.Independent, n, d, 1), Options{Threads: 2})
	defer u.Close()
	base := u.Current()
	extra := gen.Synthetic(gen.Independent, batch, d, 2)
	for i := 0; i < extra.N; i++ {
		if _, err := u.Insert(extra.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := u.Flush()
	changed := 0
	for id := int32(0); id < n; id++ {
		if !reflect.DeepEqual(snap.Membership(id), base.Membership(id)) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no base point lost a membership: the reverse pass was not exercised")
	}
	if got := snap.OverlaySize(); got != batch+changed {
		t.Fatalf("overlay has %d entries after %d inserts that changed %d base points' memberships, want %d",
			got, batch, changed, batch+changed)
	}
}

// ---- the closed-source lemma (package comment): which overlay points phase A
// tests an insert against ----

// overlaySources lists u's live points beyond the tree as the next flush will
// see them, were ids its victims: all of them, and the ones not closed.
func overlaySources(u *Updater, victims ...int32) (all, open []int32) {
	snap := u.Current()
	for id, m := range masksOf(snap) {
		if _, inBase := snap.base.rowOf(id); !inBase && !slices.Contains(victims, id) {
			all = append(all, id)
			if !m.All() {
				open = append(open, id)
			}
		}
	}
	for id := range looseOf(u) {
		if slices.Contains(victims, id) {
			continue
		}
		all = append(all, id)
		if masksOf(snap)[id] == nil {
			open = append(open, id)
		}
	}
	slices.Sort(all)
	slices.Sort(open)
	return all, open
}

// closedOverlayRig is 400 independent d = 4 points and one flushed batch of
// 160 inserts, 130 of them from the upper half of the cube: those enter no
// skyline and sit in the overlay closed.
func closedOverlayRig(t *testing.T) *lemmaRig {
	t.Helper()
	const d = 4
	r := newLemmaRig(t, gen.Synthetic(gen.Independent, 400, d, 31))
	upper := gen.Synthetic(gen.Independent, 160, d, 32)
	for i := 0; i < upper.N; i++ {
		p := slices.Clone(upper.Point(i))
		if i >= 30 {
			for j := range p {
				p[j] = 0.5 + p[j]/2
			}
		}
		r.insert(p...)
	}
	r.flush()
	if all, open := overlaySources(r.u); len(all)-len(open) < 100 || len(open) == 0 {
		t.Fatalf("%d overlay points, %d of them open: want ≥ 100 closed and some open", len(all), len(open))
	}
	return r
}

// nextBatch is 40 inserts over closedOverlayRig: half of them just behind an
// overlay point, so that overlay points — closed ones too — dominate them.
func nextBatch(r *lemmaRig, seed int64) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	all, _ := overlaySources(r.u)
	fresh := gen.Synthetic(gen.Independent, 20, r.u.d, seed)
	var batch [][]float32
	for i := 0; i < fresh.N; i++ {
		low := slices.Clone(fresh.Point(i))
		for j := range low {
			low[j] /= 4 // the corner where the skylines are
		}
		batch = append(batch, low)
		p := slices.Clone(r.u.point(all[rng.Intn(len(all))]))
		p[rng.Intn(len(p))] += 0.01 // ties its source on the other dimensions
		batch = append(batch, p)
	}
	return batch
}

// (a) An insert-only batch tests its inserts against the open overlay points
// alone, and every mask comes out as it does against all of them.
func TestClosedSourcesInsertOnlyBatch(t *testing.T) {
	r := closedOverlayRig(t)
	all, open := overlaySources(r.u)
	batch := nextBatch(r, 33)
	lives := make([]pendingInsert, len(batch))
	for i, p := range batch {
		lives[i].point = p
	}
	fromAll, fromOpen := r.u.solveInserts(lives, all), r.u.solveInserts(lives, open)
	closedBy := 0
	for i := range lives {
		if !slices.Equal(fromAll[i].Words64(), fromOpen[i].Words64()) {
			t.Fatalf("insert %v: mask %b against the open sources, %b against all", batch[i], fromOpen[i].Words64(), fromAll[i].Words64())
		}
		if fromAll[i].All() {
			closedBy++
		}
	}
	if closedBy == 0 || closedBy == len(lives) {
		t.Fatalf("%d of %d inserts closed: want some of each", closedBy, len(lives))
	}
	before := r.u.srcs
	for _, p := range batch {
		r.insert(p...)
	}
	r.flush()
	if got := r.u.srcs - before; got != int64(len(open)) {
		t.Fatalf("phase A took %d overlay sources, want the %d open ones of %d", got, len(open), len(all))
	}
}

// (b) The case the lemma excludes, by construction: e sits in the overlay
// closed, v is the only member above it in δ = {x, y}, and one batch deletes
// v and inserts p behind e. No surviving point but e dominates p in δ, so the
// batch must test p against e — it has a member victim and takes every
// overlay point as a source. (With the precondition dropped p keeps bit δ
// clear and the oracle fails this test.)
func TestClosedSourceWhoseOnlyMemberDies(t *testing.T) {
	r := newLemmaRig(t, data.FromRows([][]float32{
		{1, 1}, // v
		{0, 10}, {10, 0}, {0.5, 6}, {6, 0.5},
	}))
	e := r.insert(2, 2)
	snap := r.flush()
	if m := masksOf(snap)[e]; m == nil || !m.All() {
		t.Fatalf("e is not a closed overlay point: mask %v", m)
	}
	before := r.u.srcs
	r.delete(0)
	p := r.insert(3, 3)
	snap = r.flush()
	if got := r.u.srcs - before; got != 1 {
		t.Fatalf("phase A took %d overlay sources, want 1 (e)", got)
	}
	if got := snap.Skyline(mask.Full(2)); !reflect.DeepEqual(got, []int32{1, 2, 3, 4, e}) {
		t.Fatalf("full-space skyline %v, want e = %d in it and p = %d out", got, e, p)
	}
}

// (c) Victims that were members nowhere leave every S_δ as it was: such a
// batch takes the open sources too. One member victim and it takes them all.
func TestClosedSourcesFollowMemberVictims(t *testing.T) {
	r := closedOverlayRig(t)
	snap := r.u.Current()
	var nonMembers []int32 // three base points, three closed overlay points
	for _, id := range r.live {
		if len(snap.Membership(id)) == 0 && (len(nonMembers) < 3 || id >= 400 && len(nonMembers) < 6) {
			nonMembers = append(nonMembers, id)
		}
	}
	if len(nonMembers) < 6 || nonMembers[2] >= 400 {
		t.Fatalf("non-member victims %v: want three base points and three overlay points", nonMembers)
	}
	all, open := overlaySources(r.u, nonMembers...)
	before := r.u.srcs
	for _, id := range nonMembers {
		r.delete(id)
	}
	for _, p := range nextBatch(r, 34) {
		r.insert(p...)
	}
	r.flush()
	if got := r.u.srcs - before; got != int64(len(open)) {
		t.Fatalf("batch without a member victim: phase A took %d overlay sources, want the %d open ones of %d", got, len(open), len(all))
	}

	member := r.u.Current().Skyline(mask.Full(r.u.d))[0]
	all, open = overlaySources(r.u, member)
	before = r.u.srcs
	r.delete(member)
	for _, p := range nextBatch(r, 35) {
		r.insert(p...)
	}
	r.flush()
	if got := r.u.srcs - before; got != int64(len(all)) || len(all) == len(open) {
		t.Fatalf("batch with a member victim: phase A took %d overlay sources, want all %d (%d open)", got, len(all), len(open))
	}
}
