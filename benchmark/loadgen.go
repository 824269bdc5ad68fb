package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one load phase measured.
type loadResult struct {
	wall time.Duration
	// lat[i] is operation i's latency: from the instant it was sent in a
	// closed loop, from the instant it was due in an open loop.
	lat []time.Duration
	// maxLate is how late the open-loop generator sent its latest request.
	maxLate time.Duration
}

// runLoad issues operations 0…n-1 through do from `workers` goroutines.
//
// rate == 0 is a closed loop: each worker sends its next operation when its
// previous one completed, so a slow system receives less load.
//
// rate > 0 is an open loop: operation i is due at start + i/rate whatever
// the system does. A worker that gets to an operation after its due instant
// sends it at once, and the latency still counts from the due instant, so
// the wait a stall imposes on the requests behind it is measured, not
// omitted.
func runLoad(n, workers int, rate float64, do func(i int)) loadResult {
	lat := make([]time.Duration, n)
	var next, maxLate atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				from := time.Now()
				if rate > 0 {
					from = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(from))
					late := int64(time.Since(from))
					for old := maxLate.Load(); late > old && !maxLate.CompareAndSwap(old, late); old = maxLate.Load() {
					}
				}
				do(i)
				lat[i] = time.Since(from)
			}
		}()
	}
	wg.Wait()
	return loadResult{wall: time.Since(start), lat: lat, maxLate: time.Duration(maxLate.Load())}
}
