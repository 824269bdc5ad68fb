package delta

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"skycube/internal/mask"
)

// assertTransition checks cur's reported transition against brute force:
// it was made from prev, and its changed set is exactly the subspaces whose
// skyline differs between the two epochs.
func assertTransition(t *testing.T, prev, cur *Snapshot) {
	t.Helper()
	from, changed := cur.Transition()
	if cur.Epoch() != prev.Epoch()+1 || from != prev.Epoch() {
		t.Fatalf("epoch %d reports from %d, want %d", cur.Epoch(), from, prev.Epoch())
	}
	if changed == nil || changed.Len() != mask.NumSubspaces(cur.Dims()) {
		t.Fatalf("epoch %d: changed set %v over the wrong subspaces", cur.Epoch(), changed)
	}
	for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(cur.Dims()); delta++ {
		differs := !slices.Equal(prev.Skyline(delta), cur.Skyline(delta))
		if got := changed.Test(int(delta) - 1); got != differs {
			t.Fatalf("epoch %d, δ=%b: reported changed=%v, but the skyline differs=%v (%v → %v)",
				cur.Epoch(), delta, got, differs, prev.Skyline(delta), cur.Skyline(delta))
		}
	}
}

// TestSnapshotTransitionIsExact runs seeded schedules of mixed batches, empty
// flushes and compactions, and at every epoch holds the reported changed set
// equal to the subspaces whose skyline moved. The batches mix member and
// non-member inserts, exact duplicates of members, inserts cancelled within
// their batch, and deletes of full-space members, subspace-only members and
// non-members. From d = 7 on a mask spans several words.
func TestSnapshotTransitionIsExact(t *testing.T) {
	for _, tc := range []struct{ d, n, rounds int }{
		{3, 150, 30}, {6, 150, 24}, {8, 120, 16}, {10, 60, 10},
	} {
		t.Run(fmt.Sprintf("d=%d", tc.d), func(t *testing.T) {
			d := tc.d
			rng := rand.New(rand.NewSource(int64(97 * d)))
			const levels = 5
			r := newLemmaRig(t, gridDataset(rng, tc.n, d, levels))
			if from, changed := r.u.Current().Transition(); from != 0 || changed != nil {
				t.Fatalf("the initial build reports a transition from %d (%v)", from, changed)
			}
			full := mask.Full(d)
			pick := func(ids []int32) (int32, bool) {
				if len(ids) == 0 {
					return 0, false
				}
				return ids[rng.Intn(len(ids))], true
			}
			for round := 0; round < tc.rounds; round++ {
				prev := r.u.Current()
				switch {
				case round%6 == 5:
					assertTransition(t, prev, r.u.Compact())
					continue
				case round%5 == 4:
					if snap := r.u.Flush(); snap != prev {
						t.Fatalf("an empty flush published epoch %d", snap.Epoch())
					}
					continue
				}
				// Split the live points by membership, once per round.
				var front, subOnly, none []int32
				for _, id := range r.live {
					switch m := prev.Membership(id); {
					case len(m) == 0:
						none = append(none, id)
					case m[len(m)-1] == full:
						front = append(front, id)
					default:
						subOnly = append(subOnly, id)
					}
				}
				kinds := rng.Intn(1 << 7)
				if round < 7 {
					kinds = 1 << round // each kind alone first
				}
				if kinds&1 != 0 { // a member insert: a member lowered on one dimension
					if src, ok := pick(front); ok {
						p := slices.Clone(prev.Point(src))
						p[rng.Intn(d)] -= 0.5
						r.insert(p...)
					}
				}
				if kinds&2 != 0 { // a non-member insert: above every grid point
					p := make([]float32, d)
					for j := range p {
						p[j] = levels + float32(rng.Intn(3))
					}
					r.insert(p...)
				}
				if kinds&4 != 0 { // an exact duplicate of a member somewhere
					if src, ok := pick(append(front, subOnly...)); ok {
						r.insert(slices.Clone(prev.Point(src))...)
					}
				}
				if kinds&8 != 0 { // a member insert cancelled within its batch
					p := make([]float32, d)
					for j := range p {
						p[j] = -1
					}
					r.delete(r.insert(p...))
				}
				if kinds&16 != 0 {
					if v, ok := pick(front); ok {
						r.delete(v)
					}
				}
				if kinds&32 != 0 {
					if v, ok := pick(subOnly); ok {
						r.delete(v)
					}
				}
				if kinds&64 != 0 {
					if v, ok := pick(none); ok {
						r.delete(v)
					}
				}
				if ins, del := r.u.Pending(); ins+del == 0 && kinds&8 == 0 {
					continue // nothing of the drawn kinds was there to pick
				}
				assertTransition(t, prev, r.flush())
			}
			// A restore rebuilds from no earlier epoch.
			st, err := r.u.CaptureState(nil)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewUpdaterFrom(st, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if from, changed := restored.Current().Transition(); from != 0 || changed != nil {
				t.Fatalf("a restore reports a transition from %d (%v)", from, changed)
			}
		})
	}
}
