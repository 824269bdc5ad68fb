package main

import (
	"sync"
	"testing"
	"time"
)

// A handler that stalls once, holding a lock every request needs (as a flush
// on two cores stalls reads), must show up in the open loop as raised
// latencies for the requests queued behind it and as generator lateness; a
// closed loop over the same handler hides all of it but the requests in
// flight. This is what shows coordinated omission absent from the open loop.
func TestOpenLoopCountsTheQueueBehindAStall(t *testing.T) {
	const (
		n       = 400
		rate    = 1000.0
		stallAt = 100
		stall   = 100 * time.Millisecond
		slow    = 20 * time.Millisecond
	)
	handler := func() func(i int) {
		var mu sync.Mutex
		return func(i int) {
			mu.Lock()
			if i == stallAt {
				time.Sleep(stall)
			}
			mu.Unlock()
		}
	}
	countSlow := func(r loadResult) (c int) {
		for _, l := range r.lat {
			if l > slow {
				c++
			}
		}
		return c
	}

	open := runLoad(n, 2, rate, handler())
	if c := countSlow(open); c < 50 {
		t.Errorf("open loop: %d requests slower than %v, want the ≈80 that were due during the stall", c, slow)
	}
	if open.maxLate < stall/2 {
		t.Errorf("open loop: generator ran at most %v late, want about %v", open.maxLate, stall)
	}

	closed := runLoad(n, 2, 0, handler())
	if c := countSlow(closed); c > 2 {
		t.Errorf("closed loop: %d requests slower than %v, want only those in flight during the stall", c, slow)
	}
	if closed.maxLate != 0 {
		t.Errorf("closed loop: maxLate %v, want 0", closed.maxLate)
	}
}
