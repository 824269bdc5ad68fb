package delta

import (
	"math/rand"
	"slices"
	"testing"

	"skycube/internal/data"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// TestCompactMatchesRebuild runs seeded schedules of insert flushes, mixed
// flushes and delete batches of 25 — 5 of them full-space skyline members, so
// outsiders turn loose — and holds every compaction's folded base equal to a
// full build over the same ids at the same epoch: CaptureState and
// NewUpdaterFrom are that build. ExtRows, the tree, every row's mask, the
// outsiders' alive lanes, the front, the ties and every cuboid must agree.
// From d = 7 on a mask spans several words; the palette shape makes ties and
// duplicates the rule.
func TestCompactMatchesRebuild(t *testing.T) {
	const threads, rounds = 2, 3
	for _, tc := range []struct {
		name   string
		d, n   int
		points func(rng *rand.Rand, n int) *data.Dataset
	}{
		{"I_d6_n12000", 6, 12000, synthetic(gen.Independent, 6)},
		{"A_d4_n8000", 4, 8000, synthetic(gen.Anticorrelated, 4)},
		{"I_d8_n3000", 8, 3000, synthetic(gen.Independent, 8)},
		{"A_d7_n2000", 7, 2000, synthetic(gen.Anticorrelated, 7)},
		{"C_d5_n4000", 5, 4000, synthetic(gen.Correlated, 5)},
		{"grid_d5_n1500", 5, 1500, func(rng *rand.Rand, n int) *data.Dataset { return gridDataset(rng, n, 5, 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n + tc.d)))
			u := NewUpdater(tc.points(rng, tc.n), Options{Threads: threads})
			defer u.Close()
			live := make([]int32, tc.n)
			for i := range live {
				live[i] = int32(i)
			}
			insert := func(k int) {
				pts := tc.points(rng, k)
				for i := 0; i < pts.N; i++ {
					id, err := u.Insert(pts.Point(i))
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, id)
				}
			}
			// del deletes k random live points, the first members of them
			// drawn from the full-space skyline.
			del := func(k, members int) {
				sky := u.Current().Skyline(mask.Full(tc.d))
				rng.Shuffle(len(sky), func(i, j int) { sky[i], sky[j] = sky[j], sky[i] })
				for i := 0; i < k; i++ {
					id := live[rng.Intn(len(live))]
					if i < min(members, len(sky)) {
						id = sky[i]
					}
					if err := u.Delete(id); err != nil {
						i-- // already a victim: draw again
						continue
					}
					live = slices.DeleteFunc(live, func(v int32) bool { return v == id })
				}
			}
			loose := 0
			for round := 0; round < rounds; round++ {
				insert(tc.n / 12)
				u.Flush()
				insert(tc.n / 12)
				del(10, 1)
				u.Flush()
				del(25, 5)
				u.Flush()
				loose += len(looseOf(u))
				u.Compact()
				assertFoldIsRebuild(t, u, threads)
				if round == rounds-1 {
					u.Compact() // a fold of a fresh base
					assertFoldIsRebuild(t, u, threads)
				}
			}
			t.Logf("%d live, %d loose points folded", len(live), loose)
		})
	}
}

func synthetic(dist gen.Distribution, d int) func(rng *rand.Rand, n int) *data.Dataset {
	return func(rng *rand.Rand, n int) *data.Dataset { return gen.Synthetic(dist, n, d, rng.Int63()) }
}

// assertFoldIsRebuild holds u's current base, just compacted, equal to a full
// build over its live points at its epoch.
func assertFoldIsRebuild(t *testing.T, u *Updater, threads int) {
	t.Helper()
	st, err := u.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewUpdaterFrom(st, Options{Threads: threads})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, want := u.Current(), r.Current()
	if got.epoch != want.epoch || got.live != want.live || got.OverlaySize() != 0 {
		t.Fatalf("fold: epoch %d, %d live, %d overlay entries; rebuild: epoch %d, %d live",
			got.epoch, got.live, got.OverlaySize(), want.epoch, want.live)
	}
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"ExtRows", u.mctx.ExtRows, r.mctx.ExtRows},
		{"tree ids", u.treeID, r.treeID},
		{"base ids", got.base.ids, want.base.ids},
		{"outsiders", outsiderIDs(u), outsiderIDs(r)},
		{"front", u.front.ids, r.front.ids},
		{"ties", u.ties, r.ties},
		{"extras", u.extras, r.extras},
		{"offTree", u.offTree, r.offTree},
		{"bare", u.bare, r.bare},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("epoch %d: fold's %s differ from the rebuild's (%d vs %d entries)",
				got.epoch, c.name, len(c.got), len(c.want))
		}
	}
	lanes := 0
	for _, b := range u.outsiders.Blocks {
		lanes += b.N
	}
	if lanes != len(outsiderIDs(u)) {
		t.Fatalf("epoch %d: fold's outsider store has %d lanes, %d alive", got.epoch, lanes, len(outsiderIDs(u)))
	}
	if !slices.Equal(u.front.sums, r.front.sums) {
		t.Fatalf("epoch %d: fold's front sums differ from the rebuild's", got.epoch)
	}
	if got.base.points != want.base.points || got.base.stride != want.base.stride ||
		!slices.Equal(got.base.masks, want.base.masks) {
		t.Fatalf("epoch %d: fold's row masks differ from the rebuild's", got.epoch)
	}
	if got.base.h.IDCount() != want.base.h.IDCount() {
		t.Fatalf("epoch %d: fold's cube holds %d ids, the rebuild's %d",
			got.epoch, got.base.h.IDCount(), want.base.h.IDCount())
	}
	for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(got.d); delta++ {
		if !slices.Equal(got.Skyline(delta), want.Skyline(delta)) {
			t.Fatalf("epoch %d, δ=%b: fold %v, rebuild %v", got.epoch, delta, got.Skyline(delta), want.Skyline(delta))
		}
	}
}
