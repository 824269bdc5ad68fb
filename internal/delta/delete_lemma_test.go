package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
	"skycube/internal/qskycube"
)

// The tests in this file aim at the delete lemma (package comment): after a
// batch, an affected S_δ holds only kept members, points a member victim
// dominated in δ, and the batch's member inserts. Every flushed snapshot is
// held against the naive oracle on every subspace and id.

// recomputed reads skycube_delta_recomputed_cuboids_total.
func (r *lemmaRig) recomputed() int {
	return int(r.reg.CounterM("skycube_delta_recomputed_cuboids_total", "").Value())
}

// skewedGrid is gridDataset with a first column of two levels only: a
// low-cardinality column beside the ties and duplicates.
func skewedGrid(rng *rand.Rand, n, d, levels int) *data.Dataset {
	ds := gridDataset(rng, n, d, levels)
	for i := 0; i < n; i++ {
		ds.Vals[i*d] = float32(rng.Intn(2))
	}
	return ds
}

// The lemma itself, against brute force and independent of the updater:
// whatever is in S_δ after a batch was a member before, or was dominated in
// δ by a victim that was a member, or is one of the batch's inserts.
func TestDeleteLemmaContainment(t *testing.T) {
	for _, d := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 * d)))
			r := newLemmaRig(t, skewedGrid(rng, 150, d, 4))
			for round := 0; round < 5; round++ {
				before := r.u.Current()
				var victims []int32
				for k := 0; k < 12; k++ {
					v := r.live[rng.Intn(len(r.live))]
					victims = append(victims, v)
					r.delete(v)
				}
				first := int32(before.Len())
				if round%2 == 1 { // a mixed batch
					extra := skewedGrid(rng, 8, d, 4)
					for i := 0; i < extra.N; i++ {
						r.insert(extra.Point(i)...)
					}
				}
				after := r.flush()
				for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(d); delta++ {
					was := before.Skyline(delta)
					for _, q := range after.Skyline(delta) {
						if q >= first || slices.Contains(was, q) {
							continue
						}
						shielded := slices.ContainsFunc(victims, func(v int32) bool {
							return slices.Contains(was, v) && dom.DominatesIn(before.Point(v), before.Point(q), delta)
						})
						if !shielded {
							t.Fatalf("round %d δ=%b: %d entered S_δ though no member victim dominated it", round, delta, q)
						}
					}
				}
			}
			if r.recomputed() == 0 {
				t.Fatal("no victim was ever a member: the delete pass was not exercised")
			}
		})
	}
}

// Mixed batches on a hand-made plane. The full-space skyline is a, v, k, b;
// q1 and q2 hide behind v alone, q2 behind q1 as well.
func TestDeleteMixedBatch(t *testing.T) {
	rows := [][]float32{
		{0, 10}, // 0 a
		{2, 2},  // 1 v: the victim
		{5, 1},  // 2 k: a kept member
		{10, 0}, // 3 b
		{3, 3},  // 4 q1: only v dominates it
		{4, 4},  // 5 q2: only v and q1 dominate it
	}
	full := mask.Full(2)
	check := func(t *testing.T, snap *Snapshot, want ...int32) {
		t.Helper()
		if got := snap.Skyline(full); !reflect.DeepEqual(got, want) {
			t.Fatalf("full-space skyline %v, want %v", got, want)
		}
	}
	t.Run("a candidate only another candidate dominates", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(1)
		check(t, r.flush(), 0, 2, 3, 4)
	})
	t.Run("an insert member dominates a kept member", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(1)
		p := r.insert(4.5, 0.5) // dominates k, leaves q1 alone
		check(t, r.flush(), 0, 3, 4, p)
	})
	t.Run("an insert member dominates the candidates", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(1)
		p := r.insert(2.5, 2.5)
		check(t, r.flush(), 0, 2, 3, p)
	})
	t.Run("a cancelled insert dominates nothing", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(1)
		r.delete(r.insert(2.5, 2.5))
		p := r.insert(3, 3.5) // dominated by q1 once v is gone
		snap := r.flush()
		check(t, snap, 0, 2, 3, 4)
		if m := snap.Membership(p); m != nil {
			t.Fatalf("insert behind q1 has membership %v", m)
		}
	})
	t.Run("a victim and the candidate it shielded", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows(rows))
		r.delete(1)
		r.delete(4)
		check(t, r.flush(), 0, 2, 3, 5)
	})
}

// Victims of every kind the writer tracks: a point added by an earlier
// batch, a loose point, an outsider, and members of cuboids an earlier
// delete already cleared bits in.
func TestDeleteVictimKinds(t *testing.T) {
	ds := data.FromRows([][]float32{
		{1, 1, 1}, // 0 a: strictly dominates m and o
		{2, 2, 2}, // 1 m: outsider, strictly dominates o
		{3, 3, 3}, // 2 o: outsider
		{0, 9, 9}, {9, 0, 9}, {9, 9, 0},
	})
	t.Run("an added member", func(t *testing.T) {
		r := newLemmaRig(t, ds)
		p := r.insert(0.5, 0.5, 0.5) // dominates a, m, o
		r.flush()
		r.delete(p)
		snap := r.flush()
		if m := snap.Membership(0); len(m) == 0 {
			t.Fatal("a did not resurface after the added point above it died")
		}
	})
	t.Run("an outsider", func(t *testing.T) {
		r := newLemmaRig(t, ds)
		r.delete(1)
		r.flush()
		if got := r.recomputed(); got != 0 {
			t.Fatalf("%d cuboids re-derived for a victim that was no member", got)
		}
		if !slices.Contains(outsiderIDs(r.u), 2) || len(looseOf(r.u)) != 0 {
			t.Fatalf("o must stay an outsider while a lives: outsiders %v, loose %v", outsiderIDs(r.u), looseOf(r.u))
		}
	})
	t.Run("an outsider and its voucher at once", func(t *testing.T) {
		r := newLemmaRig(t, ds)
		r.delete(0)
		r.delete(1)
		snap := r.flush()
		if _, loose := looseOf(r.u)[2]; !loose {
			t.Fatal("o was not promoted though every point above it died")
		}
		if m := snap.Membership(2); len(m) == 0 {
			t.Fatal("o did not resurface")
		}
	})
	t.Run("a loose point, in overridden cuboids", func(t *testing.T) {
		r := newLemmaRig(t, ds)
		r.delete(0) // m and o turn loose; m resurfaces: an overlay mask off the tree
		snap := r.flush()
		if m := snap.Membership(2); m != nil {
			t.Fatalf("o is behind m, got membership %v", m)
		}
		r.delete(1) // a loose member, known by its overlay mask alone
		snap = r.flush()
		if m := snap.Membership(2); len(m) == 0 {
			t.Fatal("o did not resurface after m")
		}
		r.delete(2)
		r.flush()
	})
	t.Run("no victims, no promotion walk", func(t *testing.T) {
		r := newLemmaRig(t, ds)
		r.insert(0.5, 0.5, 0.5)
		r.flush()
		if ids := outsiderIDs(r.u); len(ids) != 2 || len(looseOf(r.u)) != 0 {
			t.Fatalf("an insert-only flush moved outsiders: %v, loose %v", ids, looseOf(r.u))
		}
	})
}

// promoted reads skycube_delta_promoted_outsiders_total.
func (r *lemmaRig) promoted() int {
	return int(r.reg.CounterM("skycube_delta_promoted_outsiders_total", "").Value())
}

// The promotion lemma (package comment) on hand-made planes: an outsider
// turns loose exactly when the batch killed the last member of the full-space
// skyline strictly above it. lemmaRig.flush checks the other direction — no
// live outsider is left without a live strict dominator — after every batch.
func TestPromotionLemma(t *testing.T) {
	wantLoose := func(t *testing.T, r *lemmaRig, promoted int, loose ...int32) {
		t.Helper()
		got := make([]int32, 0, len(looseOf(r.u)))
		for id := range looseOf(r.u) {
			got = append(got, id)
		}
		slices.Sort(got)
		if !slices.Equal(got, loose) || r.promoted() != promoted {
			t.Fatalf("loose %v after %d promotions, want %v after %d", got, r.promoted(), loose, promoted)
		}
	}
	t.Run("one of two members above an outsider dies", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows([][]float32{
			{1, 2}, {2, 1}, // a, b: both members, both strictly above q
			{3, 3}, // q
			{0, 9}, {9, 0},
		}))
		r.delete(0)
		r.flush()
		wantLoose(t, r, 0)
		if !slices.Contains(outsiderIDs(r.u), 2) {
			t.Fatalf("q left the outsiders though b lives: %v", outsiderIDs(r.u))
		}
		r.delete(1)
		if m := r.flush().Membership(2); len(m) == 0 {
			t.Fatal("q did not resurface after a and b")
		}
		wantLoose(t, r, 1, 2)
	})
	t.Run("a victim in S+ but not in the full-space skyline", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows([][]float32{
			{1, 1}, // a: strictly above q
			{1, 5}, // e: ties a on x, so a member of {x} only; strictly above q too
			{2, 6}, // q
			{9, 0},
		}))
		if m := r.u.Current().Membership(1); !slices.Equal(m, []mask.Mask{0b01}) {
			t.Fatalf("e is a member of %v, want {x} alone", m)
		}
		r.delete(1)
		r.flush()
		if r.recomputed() != 1 {
			t.Fatalf("%d cuboids re-derived, want 1: e was a member of {x}", r.recomputed())
		}
		wantLoose(t, r, 0)
	})
	t.Run("the last dominator is an inserted point", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows([][]float32{
			{1, 1}, // a
			{3, 3}, // q: outsider under a
			{0, 9}, {9, 0},
		}))
		p := r.insert(0.5, 0.5) // takes a's place in the skyline
		r.flush()
		r.delete(0) // no member any more: vouches for nobody
		r.flush()
		wantLoose(t, r, 0)
		r.delete(p)
		if m := r.flush().Membership(1); len(m) == 0 {
			t.Fatal("q did not resurface after the inserted point above it died")
		}
		wantLoose(t, r, 1, 1)
	})
	t.Run("exact duplicates of a voucher", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows([][]float32{
			{1, 1}, {1, 1}, {1, 1}, // three copies of a, members all
			{2, 2}, // q
			{0, 9}, {9, 0},
		}))
		r.delete(0)
		r.delete(2)
		r.flush()
		wantLoose(t, r, 0)
		r.delete(1)
		r.flush()
		wantLoose(t, r, 1, 3)
	})
	t.Run("a chain orphaned in one batch", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows([][]float32{
			{1, 1}, {1.5, 1}, // a, b: the members above q and t
			{2, 2}, // q
			{3, 3}, // t: behind q as well
			{0, 9}, {9, 0},
		}))
		r.delete(0)
		r.delete(1)
		snap := r.flush()
		// t is judged by the old members alone, so it turns loose with q; the
		// delete pass's cross-test then keeps it out.
		wantLoose(t, r, 2, 2, 3)
		if m := snap.Membership(3); m != nil {
			t.Fatalf("t is behind q, got membership %v", m)
		}
		r.delete(2)
		if m := r.flush().Membership(3); len(m) == 0 {
			t.Fatal("t did not resurface after q")
		}
	})
}

// Delete batches back to back over one base: every batch after the first
// meets masks the ones before it cleared bits in.
func TestDeleteConsecutiveBatches(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Anticorrelated} {
		t.Run(fmt.Sprint(dist), func(t *testing.T) {
			const d = 4
			r := newLemmaRig(t, gen.Synthetic(dist, 260, d, 77))
			rng := rand.New(rand.NewSource(78))
			for round := 0; round < 6; round++ {
				sky := r.u.Current().Skyline(mask.Full(d))
				for k := 0; k < 3 && k < len(sky); k++ {
					r.delete(sky[k])
				}
				for k := 0; k < 10; k++ {
					r.delete(r.live[rng.Intn(len(r.live))])
				}
				r.flush()
			}
			// A base point that is a member now of a cuboid the base had it
			// dominated in: some batch cleared that bit.
			snap := r.u.Current()
			resurfaced := slices.ContainsFunc(r.live, func(id int32) bool {
				row, inBase := snap.base.rowOf(id)
				return inBase && !slices.Equal(snap.Membership(id), snap.base.h.Membership(row))
			})
			if !resurfaced {
				t.Fatal("no point ever resurfaced")
			}
		})
	}
}

// Emptied cuboids: every member of one δ at once while non-members live on,
// every member of every cuboid at once, and a dataset of members only.
func TestDeleteEveryMember(t *testing.T) {
	const d = 3
	t.Run("of one cuboid", func(t *testing.T) {
		r := newLemmaRig(t, gen.Synthetic(gen.Independent, 200, d, 5))
		for _, delta := range []mask.Mask{0b001, 0b110, 0b111} {
			for _, id := range r.u.Current().Skyline(delta) {
				r.delete(id)
			}
			if got := r.flush().Skyline(delta); len(got) == 0 {
				t.Fatalf("δ=%b: nobody resurfaced among %d survivors", delta, len(r.live))
			}
		}
	})
	t.Run("of every cuboid", func(t *testing.T) {
		r := newLemmaRig(t, gen.Synthetic(gen.Independent, 200, d, 6))
		for round := 0; round < 3; round++ {
			snap := r.u.Current()
			for _, id := range slices.Clone(r.live) {
				if snap.Membership(id) != nil {
					r.delete(id)
				}
			}
			if len(r.live) == 0 {
				t.Fatalf("round %d: no non-member was left to resurface", round)
			}
			r.flush()
		}
	})
	t.Run("of a dataset of members", func(t *testing.T) {
		r := newLemmaRig(t, data.FromRows([][]float32{{0, 1, 2}, {1, 2, 0}, {2, 0, 1}}))
		for id := int32(0); id < 3; id++ {
			r.delete(id)
		}
		snap := r.flush()
		for id := int32(0); id < 3; id++ {
			if m := snap.Membership(id); m != nil {
				t.Fatalf("deleted %d has membership %v", id, m)
			}
		}
		for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(d); delta++ {
			if got := snap.Skyline(delta); got != nil {
				t.Fatalf("δ=%b: an emptied cuboid must answer nil, got %v", delta, got)
			}
		}
		r.insert(1, 1, 1)
		r.flush()
	})
}

// d = 2…6 × A/I/C: mixed batches, then every subspace against a one-shot
// QSkycube build over the survivors.
func TestDeleteAgainstQSkycube(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Anticorrelated, gen.Independent, gen.Correlated} {
		for d := 2; d <= 6; d++ {
			t.Run(fmt.Sprintf("%v/d=%d", dist, d), func(t *testing.T) {
				seed := int64(1000*d) + int64(dist)
				u := NewUpdater(gen.Synthetic(dist, 600, d, seed), Options{Threads: 2})
				defer u.Close()
				rng := rand.New(rand.NewSource(seed))
				live := make([]int32, 600)
				for i := range live {
					live[i] = int32(i)
				}
				for round := 0; round < 4; round++ {
					if round%2 == 1 {
						extra := gen.Synthetic(dist, 40, d, seed+int64(round))
						for i := 0; i < extra.N; i++ {
							id, err := u.Insert(extra.Point(i))
							if err != nil {
								t.Fatal(err)
							}
							live = append(live, id)
						}
					}
					sky := u.Current().Skyline(mask.Full(d))
					victims := sky[:min(5, len(sky))]
					for len(victims) < 25 {
						if id := live[rng.Intn(len(live))]; !slices.Contains(victims, id) {
							victims = append(victims, id)
						}
					}
					for _, id := range victims {
						if err := u.Delete(id); err != nil {
							t.Fatal(err)
						}
					}
					live = slices.DeleteFunc(live, func(id int32) bool { return slices.Contains(victims, id) })
					snap := u.Flush()

					slices.Sort(live)
					vals := make([]float32, 0, len(live)*d)
					for _, id := range live {
						vals = append(vals, snap.Point(id)...)
					}
					oracle := qskycube.Build(data.New(d, vals), qskycube.Options{Threads: 1})
					for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(d); delta++ {
						var want []int32
						for _, row := range oracle.Skyline(delta) {
							want = append(want, live[row])
						}
						slices.Sort(want)
						if got := snap.Skyline(delta); !slices.Equal(got, want) {
							t.Fatalf("round %d δ=%b: %d members, one-shot QSkycube has %d", round, delta, len(got), len(want))
						}
					}
				}
			})
		}
	}
}

// FuzzDeleteBatch replays a byte string as batches over a small grid (ties
// and duplicates everywhere): byte 0 picks d, byte 1 the base size — below 24
// points for a value under 192, 64 to 253 points above, where the outsiders
// of a d = 2 base fill more than one 64-lane word — and each byte after it is
// an op — insert (the next d bytes are the point), delete a live id (the next
// byte picks it) or flush. Every flush is held against the naive oracle, the
// outsiders it leaves against assertOutsidersVouched and the lists it keeps
// against assertListsKept.
func FuzzDeleteBatch(f *testing.F) {
	f.Add([]byte{1, 12, 2, 0, 2, 1, 2, 2, 3, 2, 0, 3})                      // two delete batches
	f.Add([]byte{0, 8, 0, 1, 1, 2, 7, 2, 0, 3, 2, 1, 0, 0, 0, 3})           // insert, cancel it, delete, flush
	f.Add([]byte{2, 20, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 3, 2, 3}) // delete the low ids
	// TestPromotionLemma's cases, as they occur in the generated bases.
	f.Add([]byte{0, 37, 2, 3, 3, 2, 8, 3})                  // (2,2) under members (1,0) and (0,1), which die a batch apart
	f.Add([]byte{0, 6, 2, 2, 3})                            // victim (1,0): member of {y} only, strictly above outsider (2,1)
	f.Add([]byte{0, 5, 0, 0, 0, 3, 2, 0, 2, 1, 3, 2, 3, 3}) // insert (0,0) above all, delete the old members, then it
	f.Add([]byte{0, 5, 2, 0, 3, 2, 1, 3})                   // two copies of (0,1) above outsider (1,2), deleted a batch apart
	f.Add([]byte{0, 179, 2, 9, 2, 9, 3})                    // both (0,0) die: (1,1) and the (2,2)s behind it orphaned at once
	// The closed-source lemma's excluded case, found by this target with the
	// precondition dropped: an insert-only flush leaves (1,1) closed under the
	// base's only point (0,0); the next batch deletes that and inserts (0,2),
	// which nothing but (1,1) dominates in {y}.
	f.Add([]byte("01011720002"))
	// A 235-point d = 2 base: its outsiders span two words of the walk.
	f.Add([]byte{0, 249, 2, 0, 2, 7, 2, 40, 2, 99, 2, 150, 3, 2, 3, 2, 5, 3})
	// A 190-point d = 2 base: one batch deletes ids 127 and 128, on both sides
	// of the overlay's first chunk boundary, and inserts (0, 1) past the base;
	// the next deletes 126 and the insert.
	f.Add([]byte{0, 234, 2, 127, 2, 127, 0, 0, 1, 3, 2, 126, 2, 187, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 || len(raw) > 96 {
			return
		}
		d := 2 + int(raw[0])%3
		rng := rand.New(rand.NewSource(int64(raw[1])))
		n := int(raw[1]) % 24
		if raw[1] >= 192 {
			n = 64 + 3*int(raw[1]-192)
		}
		ds := gridDataset(rng, n, d, 3)
		u := NewUpdater(ds, Options{Threads: 2})
		defer u.Close()
		live := make([]int32, ds.N)
		for i := range live {
			live[i] = int32(i)
		}
		ops := raw[2:]
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			switch {
			case op%4 < 2 && len(ops) >= d:
				p := make([]float32, d)
				for j := range p {
					p[j] = float32(ops[j] % 3)
				}
				ops = ops[d:]
				id, err := u.Insert(p)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			case op%4 == 2 && len(ops) >= 1 && len(live) > 0:
				i := int(ops[0]) % len(live)
				ops = ops[1:]
				if err := u.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = slices.Delete(live, i, i+1)
			case op%4 == 3:
				verifySnapshot(t, u.Flush(), sortedIDs(live))
				assertOutsidersVouched(t, u, live)
				assertListsKept(t, u)
			}
		}
		verifySnapshot(t, u.Flush(), sortedIDs(live))
		assertOutsidersVouched(t, u, live)
		assertListsKept(t, u)
	})
}
