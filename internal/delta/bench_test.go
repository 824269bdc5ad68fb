package delta

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"skycube/internal/dom"
	"skycube/internal/gen"
	"skycube/internal/mask"
)

// BenchmarkFlushInserts measures update throughput (inserts/s) as a
// function of batch size: each iteration buffers `batch` random points and
// flushes once, so the per-batch fixed costs — snapshot publication, the
// reverse pass's walk over the tree — are amortised over more points as the
// batch grows. The overlay is compacted at the default trigger, as in
// production, with the clock stopped: the number is the flush's, and the
// overlay a flush meets stays bounded whatever -benchtime is. cmp/insert is
// the hardware-independent twin: point pairs compared by phase B and the
// reverse pass, per insert. The EXPERIMENTS.md update-throughput recipe plots
// both.
func BenchmarkFlushInserts(b *testing.B) {
	const d = 5
	for _, batch := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			ds := gen.Synthetic(gen.Independent, 20000, d, 1)
			u := NewUpdater(ds, Options{Threads: runtime.NumCPU()})
			defer u.Close()
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < batch; k++ {
					p := make([]float32, d)
					for j := range p {
						p[j] = rng.Float32()
					}
					if _, err := u.Insert(p); err != nil {
						b.Fatal(err)
					}
				}
				u.Flush()
				if st := u.Stats(); float64(st.Overlay) >= DefaultCompactFraction*float64(st.BasePoints) {
					b.StopTimer()
					u.Compact()
					b.StartTimer()
				}
			}
			b.StopTimer()
			inserts := float64(b.N * batch)
			b.ReportMetric(inserts/b.Elapsed().Seconds(), "inserts/s")
			b.ReportMetric(float64(u.cmps)/inserts, "cmp/insert")
		})
	}
}

// BenchmarkCompactionFraction sweeps the compaction threshold under a
// mixed insert/delete workload: a lower fraction rebuilds the base more
// often (costly, but keeps the overlay — and hence read overhead — small),
// a higher one lets patches pile up. Compaction is triggered synchronously
// from the measured loop so its cost lands inside the timing, and the
// compactions/op metric shows how often each setting pays it.
func BenchmarkCompactionFraction(b *testing.B) {
	const d, batch = 5, 50
	for _, frac := range []float64{0.02, 0.10, 0.25, 1.0} {
		b.Run(fmt.Sprintf("frac=%g", frac), func(b *testing.B) {
			ds := gen.Synthetic(gen.Independent, 20000, d, 3)
			u := NewUpdater(ds, Options{Threads: runtime.NumCPU()})
			defer u.Close()
			rng := rand.New(rand.NewSource(4))
			live := make([]int32, ds.N)
			for i := range live {
				live[i] = int32(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < batch; k++ {
					p := make([]float32, d)
					for j := range p {
						p[j] = rng.Float32()
					}
					id, err := u.Insert(p)
					if err != nil {
						b.Fatal(err)
					}
					live = append(live, id)
				}
				for k := 0; k < batch/2 && len(live) > 100; k++ {
					idx := rng.Intn(len(live))
					if err := u.Delete(live[idx]); err != nil {
						b.Fatal(err)
					}
					live = append(live[:idx], live[idx+1:]...)
				}
				u.Flush()
				if st := u.Stats(); float64(st.Overlay) >= frac*float64(st.BasePoints) {
					u.Compact()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(u.Stats().Compactions)/float64(b.N), "compactions/op")
		})
	}
}

// BenchmarkFlushDeletes measures one Flush of a batch of 25 deletes, 5 of
// them members of the full-space skyline (a delete costs by the cuboids its
// victim is a member of, so a batch drawn from all ids alone would cost by
// how many members it happened to hit), on the benchmark's two update shapes
// and at the paper's d = 12, where a full-space member is a member of
// thousands of subspaces. Every iteration gets a fresh updater, built with the
// clock stopped, so the flush meets the same base whatever -benchtime is.
// cmp/delete is the hardware-independent twin, per victim: the point pairs
// the delete pass compares row by row (targets against shields, the
// cross-test of what stays open), plus the live survivor lanes of every word
// its survivor sweep reads; vouch/delete is the promotion walk's: the words
// it sweeps, one per voucher and outsider word plus the kept-member words
// each candidate's verdict reads. Both sum per-point and per-word counts, so
// they repeat exactly. The sub-benchmark names carry no slash, which -bench
// would split its pattern on.
func BenchmarkFlushDeletes(b *testing.B) {
	for _, c := range []struct {
		dist gen.Distribution
		d, n int
	}{
		{gen.Independent, 6, 15000},
		{gen.Anticorrelated, 4, 50000},
		{gen.Independent, 12, 20000},
	} {
		b.Run(fmt.Sprintf("%v_d%d_n%d", c.dist, c.d, c.n), func(b *testing.B) {
			const batch, fromSkyline = 25, 5
			ds := gen.Synthetic(c.dist, c.n, c.d, 20170514)
			rng := rand.New(rand.NewSource(5))
			var cmps, vouches int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u := NewUpdater(ds, Options{Threads: runtime.NumCPU()})
				sky := u.Current().Skyline(mask.Full(c.d))
				rng.Shuffle(len(sky), func(i, j int) { sky[i], sky[j] = sky[j], sky[i] })
				for k := 0; k < batch; k++ {
					id := int32(rng.Intn(c.n))
					if k < fromSkyline {
						id = sky[k]
					}
					if err := u.Delete(id); err != nil {
						k-- // already a victim: draw again
					}
				}
				b.StartTimer()
				u.Flush()
				b.StopTimer()
				cmps += u.cmps
				vouches += u.vouches.Load()
				u.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(cmps)/float64(b.N*batch), "cmp/delete")
			b.ReportMetric(float64(vouches)/float64(b.N*batch), "vouch/delete")
		})
	}
}

// BenchmarkCompact measures one Compact on the benchmark's wide update shape:
// an Independent d=6 base of 12 000 points, then three flushes of 1 000
// inserts and one of 25 deletes, 5 of them full-space skyline members, all
// on a fresh updater built with the clock stopped, so every iteration folds
// the same epoch. sweeps/compaction is the hardware-independent twin: the
// 64-lane kernel words the compaction sweeps — the extended skyline's
// blocks, and at a rebuild MDMC's label columns too. Every iteration draws
// the same victims, so it repeats exactly.
func BenchmarkCompact(b *testing.B) {
	const d, n, batches, batch = 6, 12000, 3, 1000
	ds := gen.Synthetic(gen.Independent, n, d, 20170514)
	pool := gen.Synthetic(gen.Independent, batches*batch, d, 20170515)
	var sweeps uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		u := NewUpdater(ds, Options{Threads: runtime.NumCPU()})
		for k := 0; k < batches*batch; k++ {
			if _, err := u.Insert(pool.Point(k)); err != nil {
				b.Fatal(err)
			}
			if (k+1)%batch == 0 {
				u.Flush()
			}
		}
		rng := rand.New(rand.NewSource(5))
		sky := u.Current().Skyline(mask.Full(d))
		rng.Shuffle(len(sky), func(i, j int) { sky[i], sky[j] = sky[j], sky[i] })
		for k := 0; k < 25; k++ {
			id := int32(rng.Intn(n + batches*batch))
			if k < 5 {
				id = sky[k]
			}
			if err := u.Delete(id); err != nil {
				k-- // already a victim: draw again
			}
		}
		u.Flush()
		before := dom.KernelStats().BlockSweeps
		b.StartTimer()
		u.Compact()
		b.StopTimer()
		sweeps += dom.KernelStats().BlockSweeps - before
		u.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/compaction")
}
