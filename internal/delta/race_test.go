package delta

import (
	"math/rand"
	"sync"
	"testing"

	"skycube/internal/gen"
	"skycube/internal/mask"
)

// TestConcurrentReadersWriter pits snapshot readers against a writer
// applying delta batches (with background auto-compaction enabled). It is
// the CI -race job's main target: readers pin epochs lock-free while the
// writer publishes, appends to the shared value arena, and swaps bases.
// Each reader cross-checks the internal consistency of whatever epoch it
// pinned — skyline members must be alive and listed by Membership.
func TestConcurrentReadersWriter(t *testing.T) {
	const d = 4
	ds := gen.Synthetic(gen.Independent, 400, d, 7)
	u := NewUpdater(ds, Options{Threads: 4, AutoCompact: true, CompactFraction: 0.05})
	defer u.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	total := mask.NumSubspaces(d)

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := u.Current()
				delta := mask.Mask(1 + rng.Intn(total))
				sky := snap.Skyline(delta)
				for _, id := range sky {
					if !snap.Alive(id) {
						t.Errorf("epoch %d: skyline δ=%b lists dead id %d", snap.Epoch(), delta, id)
						return
					}
				}
				if len(sky) > 0 {
					id := sky[rng.Intn(len(sky))]
					found := false
					for _, m := range snap.Membership(id) {
						if m == delta {
							found = true
							break
						}
					}
					if !found {
						t.Errorf("epoch %d: id %d in Skyline(%b) but not in its Membership", snap.Epoch(), id, delta)
						return
					}
				}
				// Pinned epochs from the history ring must stay addressable
				// and agree with themselves.
				if pinned := u.At(snap.Epoch()); pinned != nil && pinned.Epoch() != snap.Epoch() {
					t.Errorf("At(%d) returned epoch %d", snap.Epoch(), pinned.Epoch())
					return
				}
			}
		}(int64(r))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(99))
		live := make([]int32, ds.N)
		for i := range live {
			live[i] = int32(i)
		}
		for b := 0; b < 20; b++ {
			for k := 0; k < 15; k++ {
				p := make([]float32, d)
				for j := range p {
					p[j] = rng.Float32()
				}
				id, err := u.Insert(p)
				if err != nil {
					t.Error(err)
					return
				}
				live = append(live, id)
			}
			for k := 0; k < 10 && len(live) > 50; k++ {
				idx := rng.Intn(len(live))
				if err := u.Delete(live[idx]); err != nil {
					t.Error(err)
					return
				}
				live = append(live[:idx], live[idx+1:]...)
			}
			u.Flush()
		}
	}()
	wg.Wait()
}
