package delta

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"skycube/internal/gen"
	"skycube/internal/mask"
)

// The tests in this file hold the overlay's copy-on-write chunks and the
// lists a batch keeps (the front, the ties, the points beyond the tree) to
// what a rebuild gives, at the repository benchmark's narrow update shape,
// and check that publishing an epoch costs what its batch touched.

// epochPin is what a snapshot answered when it was published.
type epochPin struct {
	snap    *Snapshot
	sky     [][]int32
	member  map[int32][]mask.Mask
	overlay int
}

// pinEpoch records snap's answers on every subspace and id.
func pinEpoch(snap *Snapshot) epochPin {
	p := epochPin{snap: snap, member: map[int32][]mask.Mask{}, overlay: snap.OverlaySize()}
	for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(snap.d); delta++ {
		p.sky = append(p.sky, snap.Skyline(delta))
	}
	for id := int32(0); id < int32(snap.Len()); id++ {
		if m := snap.Membership(id); m != nil {
			p.member[id] = m
		}
	}
	return p
}

// check fails unless p.snap still answers as it did when pinned.
func (p epochPin) check(t *testing.T) {
	t.Helper()
	for i, want := range p.sky {
		if got := p.snap.Skyline(mask.Mask(i + 1)); !slices.Equal(got, want) {
			t.Fatalf("epoch %d δ=%b: pinned snapshot answers %d ids, %d when published", p.snap.epoch, i+1, len(got), len(want))
		}
	}
	for id := int32(0); id < int32(p.snap.Len()); id++ {
		if got := p.snap.Membership(id); !reflect.DeepEqual(got, p.member[id]) {
			t.Fatalf("epoch %d: pinned membership of %d is %v, %v when published", p.snap.epoch, id, got, p.member[id])
		}
	}
	if got := p.snap.OverlaySize(); got != p.overlay {
		t.Fatalf("epoch %d: pinned overlay has %d entries, %d when published", p.snap.epoch, got, p.overlay)
	}
}

// TestDeleteFlushAtNarrowShape runs the repository benchmark's narrow update
// shape — Anticorrelated d = 4 over 50 000 points, 8 flushes of 100 inserts,
// one of 1 000, then 2 delete batches of 25 with 5 full-space skyline members
// each — and holds every flushed epoch, on every subspace and id, against a
// compaction of the same state (NewUpdaterFrom over its CaptureState rebuilds
// the base from the live points, as Compact does). Every epoch stays pinned:
// at the end each must still answer as it did when published, though later
// flushes cloned and rewrote the overlay chunks it shares.
func TestDeleteFlushAtNarrowShape(t *testing.T) {
	const d, n = 4, 50000
	ds := gen.Synthetic(gen.Anticorrelated, n, d, 20170514)
	pool := gen.Synthetic(gen.Anticorrelated, 1800, d, 2)
	u := NewUpdater(ds, Options{Threads: 2})
	defer u.Close()
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	var pins []epochPin
	flush := func() {
		t.Helper()
		snap := u.Flush()
		st, err := u.CaptureState(nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewUpdaterFrom(st, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pin, want := pinEpoch(snap), pinEpoch(c.Current())
		for i := range pin.sky {
			if !slices.Equal(pin.sky[i], want.sky[i]) {
				t.Fatalf("epoch %d δ=%b: %d ids, the compacted copy %d", snap.epoch, i+1, len(pin.sky[i]), len(want.sky[i]))
			}
		}
		if !reflect.DeepEqual(pin.member, want.member) {
			t.Fatalf("epoch %d: memberships differ from the compacted copy's", snap.epoch)
		}
		assertListsKept(t, u)
		pins = append(pins, pin)
	}

	next := 0
	for _, size := range []int{100, 100, 100, 100, 100, 100, 100, 100, 1000} {
		for k := 0; k < size; k++ {
			id, err := u.Insert(pool.Point(next))
			if err != nil {
				t.Fatal(err)
			}
			next++
			live = append(live, id)
		}
		flush()
	}
	rng := rand.New(rand.NewSource(3))
	for batch := 0; batch < 2; batch++ {
		sky := u.Current().Skyline(mask.Full(d))
		rng.Shuffle(len(sky), func(i, j int) { sky[i], sky[j] = sky[j], sky[i] })
		for k, taken := 0, 0; taken < 25; k++ {
			var id int32
			if k < 5 {
				id = sky[k]
			} else {
				id = live[rng.Intn(len(live))]
			}
			if u.Delete(id) == nil {
				live = slices.DeleteFunc(live, func(x int32) bool { return x == id })
				taken++
			}
		}
		flush()
	}
	if u.Current().OverlaySize() < 1800 {
		t.Fatalf("overlay of %d entries: the batches did not build one up", u.Current().OverlaySize())
	}
	for _, p := range pins {
		p.check(t)
	}
}

// TestFlushPublicationFollowsBatch measures the bytes a flush of one victim
// allocates over an overlay of about 1 000 entries and of about 8 000: a
// flush copies the chunk directory and clones the chunks it writes, so the
// two must stay within 2× of each other. (A per-epoch copy of the whole
// overlay costs about eight times as much at 8 000 entries.) The victims are
// members of no skyline, so the flush runs neither pass and publishing the
// epoch is all it does.
func TestFlushPublicationFollowsBatch(t *testing.T) {
	const d, n, flushes = 4, 20000, 16
	perFlush := func(entries int) float64 {
		ds := gen.Synthetic(gen.Independent, n, d, 1)
		u := NewUpdater(ds, Options{Threads: 2})
		defer u.Close()
		rng := rand.New(rand.NewSource(2))
		for u.Current().OverlaySize() < entries {
			for k := 0; k < 500; k++ {
				p := make([]float32, d)
				for j := range p {
					p[j] = rng.Float32()
				}
				if _, err := u.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			u.Flush()
		}
		var victims []int32
		for id := int32(0); len(victims) < flushes; id += 97 {
			if u.Current().Alive(id) && u.Current().Membership(id) == nil {
				victims = append(victims, id)
			}
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, v := range victims {
			if err := u.Delete(v); err != nil {
				t.Fatal(err)
			}
			u.Flush()
		}
		runtime.ReadMemStats(&after)
		t.Logf("overlay of %d entries: %.0f bytes per flush", u.Current().OverlaySize(),
			float64(after.TotalAlloc-before.TotalAlloc)/flushes)
		return float64(after.TotalAlloc-before.TotalAlloc) / flushes
	}
	small, large := perFlush(1000), perFlush(8000)
	if large >= 2*small {
		t.Fatalf("a one-victim flush allocates %.0f bytes over 8 000 overlay entries, %.0f over 1 000: publication grows with the overlay", large, small)
	}
}
