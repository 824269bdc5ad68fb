package skycube_test

import (
	"math/rand"
	"slices"
	"testing"

	"skycube"
)

// BenchmarkDurableFlush measures one Flush on a durable updater (a real
// write-ahead log in a temporary directory, Fsync "always") next to the
// same Flush in memory, at the repository benchmark's wide update shape
// (Independent, d = 6, n = 12 000, Threads 2). The durable flush journals
// its epoch marker and commits it while it computes the epoch, so it reads
// toward the larger of the computation (the memory row) and one fsync,
// not their sum. As in the repository benchmark's update stage, the inserts
// or deletes are journaled but not committed before the flush, so the
// marker's commit carries them: fsyncs/op, what the flush moved
// skycube_wal_fsyncs_total by, must be exactly 1. Every iteration gets a
// fresh updater, built and checkpointed with the clock stopped, so each
// flush meets the same base:
//
//   - deletes=25 drops 5 members of the full-space skyline and 20 other
//     ids, as the repository benchmark's delete batches do;
//   - inserts=100 adds 100 points drawn from the same distribution.
func BenchmarkDurableFlush(b *testing.B) {
	const d, n = 6, 12000
	ds := skycube.GenerateSynthetic(skycube.Independent, n, d, 20170514)
	pool := skycube.GenerateSynthetic(skycube.Independent, 100, d, 20170515)
	cases := []struct {
		name   string
		buffer func(b *testing.B, up *skycube.Updater, rng *rand.Rand)
	}{
		{"deletes=25", func(b *testing.B, up *skycube.Updater, rng *rand.Rand) {
			sky := up.Current().Skyline(skycube.FullSpace(d))
			victims := make([]int32, 0, 25)
			for _, k := range rng.Perm(len(sky))[:5] {
				victims = append(victims, sky[k])
			}
			for len(victims) < 25 {
				if id := int32(rng.Intn(n)); !slices.Contains(victims, id) {
					victims = append(victims, id)
				}
			}
			for _, id := range victims {
				if err := up.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"inserts=100", func(b *testing.B, up *skycube.Updater, _ *rand.Rand) {
			for i := 0; i < pool.Len(); i++ {
				if _, err := up.Insert(pool.Point(i)); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, c := range cases {
		for _, durable := range []bool{true, false} {
			name := c.name + "/memory"
			if durable {
				name = c.name + "/always"
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(5))
				var fsyncs float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					reg := skycube.NewMetrics()
					opt := skycube.Options{Threads: 2, Metrics: reg}
					if durable {
						opt.Durable = skycube.DurableOptions{Dir: b.TempDir(), Fsync: "always", CheckpointEvery: -1}
					}
					up, err := skycube.NewUpdater(ds, opt)
					if err != nil {
						b.Fatal(err)
					}
					c.buffer(b, up, rng)
					count := reg.CounterM("skycube_wal_fsyncs_total", "")
					before := count.Value()
					b.StartTimer()
					up.Flush()
					b.StopTimer()
					fsyncs += count.Value() - before
					up.Close()
					b.StartTimer()
				}
				if durable {
					if fsyncs != float64(b.N) {
						b.Fatalf("%v fsyncs over %d flushes, want one each", fsyncs, b.N)
					}
					b.ReportMetric(fsyncs/float64(b.N), "fsyncs/op")
				}
			})
		}
	}
}
