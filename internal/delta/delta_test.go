package delta

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// naiveSkyline is the oracle: a quadratic dominance scan over the live
// points, independent of every production code path.
func naiveSkyline(pts [][]float32, ids []int32, delta mask.Mask) []int32 {
	var out []int32
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i != j && dom.DominatesIn(q, p, delta) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, ids[i])
		}
	}
	return out
}

// verifySnapshot checks a snapshot against the naive oracle on every
// subspace, plus the Membership transpose, Alive and Live.
func verifySnapshot(t *testing.T, snap *Snapshot, live []int32) {
	t.Helper()
	pts := make([][]float32, len(live))
	for i, id := range live {
		pts[i] = snap.Point(id)
	}
	total := mask.NumSubspaces(snap.Dims())
	member := make(map[int32][]mask.Mask)
	for delta := mask.Mask(1); int(delta) <= total; delta++ {
		want := naiveSkyline(pts, live, delta)
		got := snap.Skyline(delta)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d δ=%b: got %v\nwant %v", snap.Epoch(), delta, got, want)
		}
		for _, id := range want {
			member[id] = append(member[id], delta)
		}
	}
	liveSet := make(map[int32]struct{}, len(live))
	for _, id := range live {
		liveSet[id] = struct{}{}
	}
	for i := 0; i < snap.Len(); i++ {
		id := int32(i)
		if got := snap.Membership(id); !reflect.DeepEqual(got, member[id]) {
			t.Fatalf("epoch %d membership of %d: got %v, want %v", snap.Epoch(), id, got, member[id])
		}
		if _, want := liveSet[id]; snap.Alive(id) != want {
			t.Fatalf("epoch %d Alive(%d) = %v, want %v", snap.Epoch(), id, snap.Alive(id), want)
		}
	}
	if snap.Live() != len(live) {
		t.Fatalf("epoch %d Live() = %d, want %d", snap.Epoch(), snap.Live(), len(live))
	}
}

func sortedIDs(live []int32) []int32 {
	out := append([]int32(nil), live...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// TestRandomMixedBatchesMatchNaive is the package's core equivalence test:
// random insert/delete batches across distributions and dimensionalities,
// every flushed snapshot compared against the naive oracle, and a final
// compaction re-verified.
func TestRandomMixedBatchesMatchNaive(t *testing.T) {
	dists := []gen.Distribution{gen.Correlated, gen.Independent, gen.Anticorrelated}
	for _, dist := range dists {
		for d := 2; d <= 5; d++ {
			t.Run(fmt.Sprintf("%v/d=%d", dist, d), func(t *testing.T) {
				seed := int64(41*d) + int64(dist)
				ds := gen.Synthetic(dist, 220, d, seed)
				u := NewUpdater(ds, Options{Threads: 4})
				defer u.Close()
				rng := rand.New(rand.NewSource(seed))
				live := make([]int32, ds.N)
				for i := range live {
					live[i] = int32(i)
				}
				verifySnapshot(t, u.Current(), live)
				for round := 0; round < 3; round++ {
					extra := gen.Synthetic(dist, 25, d, seed+int64(round)+100)
					for i := 0; i < extra.N; i++ {
						id, err := u.Insert(extra.Point(i))
						if err != nil {
							t.Fatal(err)
						}
						live = append(live, id)
					}
					// Deletes hit pending inserts too (cancellation path).
					for k := 0; k < 18 && len(live) > 1; k++ {
						idx := rng.Intn(len(live))
						if err := u.Delete(live[idx]); err != nil {
							t.Fatal(err)
						}
						live = append(live[:idx], live[idx+1:]...)
					}
					verifySnapshot(t, u.Flush(), sortedIDs(live))
				}
				verifySnapshot(t, u.Compact(), sortedIDs(live))
			})
		}
	}
}

// TestEmptyStartAndDeleteAll covers both degenerate bases: an updater born
// over zero points (nil tree, inserts solved against extras only) and a
// base whose every point has been tombstoned.
func TestEmptyStartAndDeleteAll(t *testing.T) {
	const d = 3
	u := NewUpdater(data.New(d, nil), Options{Threads: 2})
	defer u.Close()
	rng := rand.New(rand.NewSource(5))
	var live []int32
	for round := 0; round < 2; round++ {
		for k := 0; k < 20; k++ {
			p := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
			id, err := u.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		verifySnapshot(t, u.Flush(), sortedIDs(live))
	}

	// Now delete everything without compacting.
	for _, id := range live {
		if err := u.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	snap := u.Flush()
	verifySnapshot(t, snap, nil)
	total := mask.NumSubspaces(d)
	for delta := mask.Mask(1); int(delta) <= total; delta++ {
		if got := snap.Skyline(delta); got != nil {
			t.Fatalf("empty skycube δ=%b: got %v", delta, got)
		}
	}

	// Inserts against a fully-dead tree must still resolve correctly.
	live = nil
	for k := 0; k < 15; k++ {
		p := []float32{rng.Float32(), rng.Float32(), rng.Float32()}
		id, err := u.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	verifySnapshot(t, u.Flush(), sortedIDs(live))
}

// TestInsertFilterReadsLeavesWithDeadLeaves solves inserts over a base tree
// with about one leaf per L2 node, so their filter reads the leaf columns
// (three levels), after whole leaves have died: FilterExternal may take no
// dominance from a leaf whose points are all deleted, and leafAlive is what
// tells it. Every flushed snapshot is checked against the naive oracle.
func TestInsertFilterReadsLeavesWithDeadLeaves(t *testing.T) {
	const d = 5
	ds := gen.Synthetic(gen.Independent, 600, d, 29)
	u := NewUpdater(ds, Options{Threads: 2, CompactFraction: -1})
	defer u.Close()
	tree := u.mctx.Tree
	if u.mctx.FilterLevel != 3 {
		t.Fatalf("%d leaves under %d L2 nodes: filter level %d, want 3", len(tree.Leaves), len(tree.L2), u.mctx.FilterLevel)
	}
	live := make(map[int32]bool, ds.N)
	for i := 0; i < ds.N; i++ {
		live[int32(i)] = true
	}
	liveIDs := func() []int32 {
		var ids []int32
		for id, ok := range live {
			if ok {
				ids = append(ids, id)
			}
		}
		return sortedIDs(ids)
	}
	// Every point of every third leaf, so those leaves are dead.
	for li, lf := range tree.Leaves {
		if li%3 != 0 {
			continue
		}
		for pos := lf.Start; pos < lf.End; pos++ {
			id := u.treeID[pos]
			if err := u.Delete(id); err != nil {
				t.Fatal(err)
			}
			live[id] = false
		}
	}
	verifySnapshot(t, u.Flush(), liveIDs())
	for round := 0; round < 2; round++ {
		extra := gen.Synthetic(gen.Independent, 60, d, int64(round)+30)
		for i := 0; i < extra.N; i++ {
			id, err := u.Insert(extra.Point(i))
			if err != nil {
				t.Fatal(err)
			}
			live[id] = true
		}
		verifySnapshot(t, u.Flush(), liveIDs())
	}
}

// TestDeleteValidation checks the eager error contract of Delete.
func TestDeleteValidation(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 30, 3, 1)
	u := NewUpdater(ds, Options{Threads: 1})
	defer u.Close()
	if err := u.Delete(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := u.Delete(30); err == nil {
		t.Fatal("unknown id accepted")
	}
	if err := u.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := u.Delete(7); err == nil {
		t.Fatal("double pending delete accepted")
	}
	u.Flush()
	if err := u.Delete(7); err == nil {
		t.Fatal("delete of dead id accepted")
	}
	// Cancelling a pending insert consumes its id permanently.
	id, _ := u.Insert([]float32{1, 2, 3})
	if err := u.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := u.Delete(id); err == nil {
		t.Fatal("double cancel accepted")
	}
	snap := u.Flush()
	if snap.Alive(id) {
		t.Fatalf("cancelled insert %d is alive", id)
	}
	if ins, del := u.Pending(); ins != 0 || del != 0 {
		t.Fatalf("pending after flush: %d inserts, %d deletes", ins, del)
	}
}

// TestEpochPinnedHistory checks MVCC isolation: an old epoch pinned from
// the history ring keeps serving its old answers verbatim after later
// batches, and the ring evicts beyond its history bound.
func TestEpochPinnedHistory(t *testing.T) {
	const d = 4
	ds := gen.Synthetic(gen.Independent, 150, d, 3)
	u := NewUpdater(ds, Options{Threads: 2})
	defer u.Close()
	full := mask.Full(d)
	s1 := u.Current()
	if s1.Epoch() != 1 {
		t.Fatalf("initial epoch %d", s1.Epoch())
	}
	wantSky := s1.Skyline(full)
	wantMem := s1.Membership(wantSky[0])

	for round := 0; round < history; round++ {
		if _, err := u.Insert(make([]float32, d)); err != nil { // dominates everything
			t.Fatal(err)
		}
		u.Flush()
	}
	if got := s1.Skyline(full); !reflect.DeepEqual(got, wantSky) {
		t.Fatalf("pinned epoch 1 skyline changed: %v -> %v", wantSky, got)
	}
	if got := s1.Membership(wantSky[0]); !reflect.DeepEqual(got, wantMem) {
		t.Fatalf("pinned epoch 1 membership changed")
	}
	if u.Current().Epoch() != history+1 {
		t.Fatalf("epoch after %d batches: %d", history, u.Current().Epoch())
	}
	if u.At(1) != nil {
		t.Fatalf("epoch 1 still addressable past %d epochs", history)
	}
	if s := u.At(2); s == nil || s.Epoch() != 2 {
		t.Fatal("epoch 2, the oldest in the ring, not addressable")
	}
	if u.At(99) != nil {
		t.Fatal("future epoch addressable")
	}
}

// TestAutoCompactTrigger drives the overlay past an aggressive threshold
// (and past the minCompactOverlay floor: 5 × 15 entries at least) and waits
// for the background compactor to fold it into a new base.
func TestAutoCompactTrigger(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 120, 4, 9)
	u := NewUpdater(ds, Options{Threads: 2, AutoCompact: true, CompactFraction: 0.01})
	defer u.Close()
	rng := rand.New(rand.NewSource(9))
	live := make([]int32, ds.N)
	for i := range live {
		live[i] = int32(i)
	}
	for b := 0; b < 5; b++ {
		for k := 0; k < 20; k++ {
			p := []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
			id, err := u.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		for k := 0; k < 5; k++ {
			idx := rng.Intn(len(live))
			if err := u.Delete(live[idx]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:idx], live[idx+1:]...)
		}
		u.Flush()
	}
	deadline := time.Now().Add(10 * time.Second)
	for u.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no compaction within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
	verifySnapshot(t, u.Current(), sortedIDs(live))
}

// TestStatsShape sanity-checks the diagnostics counters.
func TestStatsShape(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 80, 3, 2)
	u := NewUpdater(ds, Options{Threads: 1})
	defer u.Close()
	if _, err := u.Insert([]float32{0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := u.Delete(3); err != nil {
		t.Fatal(err)
	}
	st := u.Stats()
	if st.PendingInserts != 1 || st.PendingDeletes != 1 {
		t.Fatalf("pending = %d/%d, want 1/1", st.PendingInserts, st.PendingDeletes)
	}
	u.Flush()
	st = u.Stats()
	if st.Epoch != 2 || st.Live != 80 || st.Dead != 1 || st.BasePoints != 80 {
		t.Fatalf("stats after batch: %+v", st)
	}
}

// TestAliveOfBasePointDoesNotAllocate: a point without an overlay entry is
// read from the base's flat word table, through no wrapper on the heap — Alive,
// Membership's scan, the reverse pass and the delete pass's survivor gather
// all make this lookup once per point. With and without an overlay above.
func TestAliveOfBasePointDoesNotAllocate(t *testing.T) {
	u := NewUpdater(gen.Synthetic(gen.Independent, 300, 4, 9), Options{Threads: 1})
	defer u.Close()
	for _, victim := range []int32{-1, 7} {
		if victim >= 0 {
			if err := u.Delete(victim); err != nil {
				t.Fatal(err)
			}
		}
		snap := u.Flush()
		alive := 0
		allocs := testing.AllocsPerRun(10, func() {
			alive = 0
			for id := int32(0); id < 300; id++ {
				if snap.Alive(id) {
					alive++
				}
			}
		})
		if allocs != 0 || alive != snap.Live() {
			t.Fatalf("Alive over 300 base ids: %v allocations, %d alive of %d live", allocs, alive, snap.Live())
		}
	}
}

// TestBatchRepliesEvictOldestAndRestore: the updater remembers the last
// maxBatchReplies replies, forgets the oldest first, keeps a re-remembered
// id in its original place, and carries the replies through CaptureState
// and NewUpdaterFrom in that order.
func TestBatchRepliesEvictOldestAndRestore(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 20, 3, 5)
	u := NewUpdater(ds, Options{Threads: 1})
	defer u.Close()
	for i := 0; i <= maxBatchReplies; i++ {
		if err := u.RememberBatch(fmt.Sprintf("b%d", i), 200, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := u.LookupBatch("b0"); ok {
		t.Fatal("the oldest reply survived the cap")
	}
	if err := u.RememberBatch("b1", 500, []byte("again")); err != nil {
		t.Fatal(err)
	}
	st, err := u.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := NewUpdaterFrom(st, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	st2, _ := u2.CaptureState(nil)
	if len(st2.Replies) != maxBatchReplies {
		t.Fatalf("restored %d replies, want %d", len(st2.Replies), maxBatchReplies)
	}
	if first := st2.Replies[0]; first.ID != "b1" || first.Status != 500 {
		t.Fatalf("oldest restored reply %s/%d, want b1/500", first.ID, first.Status)
	}
	if last := st2.Replies[maxBatchReplies-1]; last.ID != fmt.Sprintf("b%d", maxBatchReplies) {
		t.Fatalf("newest restored reply %s", last.ID)
	}
}

// TestRememberBatchRefusesUnjournalableID: an empty id or one longer than
// MaxBatchID is refused and not remembered, so no checkpoint can hold it.
func TestRememberBatchRefusesUnjournalableID(t *testing.T) {
	u := NewUpdater(gen.Synthetic(gen.Independent, 20, 3, 5), Options{Threads: 1})
	defer u.Close()
	for _, id := range []string{"", strings.Repeat("x", MaxBatchID+1)} {
		if err := u.RememberBatch(id, 200, nil); err == nil {
			t.Fatalf("RememberBatch accepted a %d-byte id", len(id))
		}
		if _, ok := u.LookupBatch(id); ok {
			t.Fatalf("a refused %d-byte id was remembered", len(id))
		}
	}
}
