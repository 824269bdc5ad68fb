package main

import (
	"math/rand"
	"sync"
	"time"
)

// The sandbox is a few processors of a shared host, and the host's speed
// drifts: over twenty minutes, ten runs of the same binary read every metric
// of both workloads a tenth slower for some minutes and a tenth faster for
// others, together (README.md, "Host speed"). No statistic within a run
// removes what lasts longer than the run. So a run times, at every stage
// boundary, a reference kernel that belongs to the benchmark and that no
// change to the repository can touch — a fixed number of scalar dominance
// tests over a fixed array, on as many goroutines as the workloads have
// threads — and reports its end-to-end metrics at the kernel's nominal speed:
// a time is divided by (the run's median kernel time ÷ refNominalMs), a rate
// multiplied by it. The raw medians are printed beside them.
const (
	refPoints = 500000 // 12 MB of float32: more than a processor's own cache
	refDims   = 6
	refRows   = 8 // probes per goroutine, each tested against every point
	// refNominalMs is the kernel's median time on the sandbox on a quiet day.
	refNominalMs = 57.0
)

// hostClock collects the reference kernel's times over a run.
type hostClock struct {
	vals []float32
	ms   []float64
}

func newHostClock() *hostClock {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, refPoints*refDims)
	for i := range vals {
		vals[i] = rng.Float32()
	}
	return &hostClock{vals: vals}
}

// dominators counts, for each probe row in [lo, hi), the points that dominate it.
func (h *hostClock) dominators(lo, hi int) int {
	count := 0
	for i := lo; i < hi; i++ {
		p := h.vals[i*refDims : (i+1)*refDims]
		for j := 0; j < refPoints; j++ {
			q := h.vals[j*refDims : (j+1)*refDims]
			leq, lt := true, false
			for k := range p {
				if q[k] > p[k] {
					leq = false
					break
				}
				if q[k] < p[k] {
					lt = true
				}
			}
			if leq && lt {
				count++
			}
		}
	}
	return count
}

var kernelSink int // keeps the kernel's result alive

// sample times the kernel once.
func (h *hostClock) sample() {
	start := time.Now()
	var counts [threads]int
	var wg sync.WaitGroup
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[g] = h.dominators(g*refRows, (g+1)*refRows)
		}()
	}
	wg.Wait()
	h.ms = append(h.ms, millis(time.Since(start)))
	for _, c := range counts {
		kernelSink += c
	}
}

// factor is how much slower than nominal the host ran over the run.
func (h *hostClock) factor() float64 { return median(h.ms) / refNominalMs }
