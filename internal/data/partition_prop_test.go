// Property tests for the partition modes: every row lands in exactly one
// shard and shard sizes stay balanced enough to be non-empty — including
// datasets with negative coordinates and duplicate points.
package data

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randDataset builds a dataset whose coordinates may be negative and where
// a fraction of rows are exact duplicates of earlier rows.
func randDataset(rng *rand.Rand, n, d int, dupFraction float64) *Dataset {
	rows := make([][]float32, n)
	for i := range rows {
		if i > 0 && rng.Float64() < dupFraction {
			src := rows[rng.Intn(i)]
			dup := make([]float32, d)
			copy(dup, src)
			rows[i] = dup
			continue
		}
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(rng.NormFloat64()) // negative about half the time
		}
		rows[i] = row
	}
	return FromRows(rows)
}

func TestPartitionPropertySpatialModes(t *testing.T) {
	rng := rand.New(rand.NewSource(991))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		d := 2 + rng.Intn(5)
		k := 1 + rng.Intn(8)
		if k > n {
			k = n
		}
		dup := float64(trial%3) * 0.25
		ds := randDataset(rng, n, d, dup)
		for _, mode := range []PartitionMode{Angular, RoundRobin} {
			t.Run(fmt.Sprintf("t%d/%v/n%d/d%d/k%d", trial, mode, n, d, k), func(t *testing.T) {
				parts, err := Partition(ds, k, mode)
				if err != nil {
					t.Fatalf("Partition: %v", err)
				}
				if len(parts) != k {
					t.Fatalf("got %d shards, want %d", len(parts), k)
				}
				// Coverage: counting original row ids across shards, every
				// row appears exactly once. Duplicate points are
				// distinguishable by id, so a row routed twice (or dropped)
				// is caught even when its coordinates repeat.
				seen := make([]int, n)
				total := 0
				for s, p := range parts {
					if p.N == 0 {
						t.Fatalf("shard %d empty with n=%d k=%d", s, n, k)
					}
					total += p.N
					for _, id := range p.IDs {
						if id < 0 || int(id) >= n {
							t.Fatalf("shard %d carries foreign id %d", s, id)
						}
						seen[id]++
					}
				}
				if total != n {
					t.Fatalf("shards hold %d rows, dataset has %d", total, n)
				}
				for id, c := range seen {
					if c != 1 {
						t.Fatalf("row %d covered %d times", id, c)
					}
				}
			})
		}
	}
}

// TestPartitionAngularSlicesOrdered pins the Angular mode's defining
// property: shards are contiguous slices of the first hyperspherical angle
// around the min corner, so no point of shard s+1 lies at a smaller angle
// than a point of shard s.
func TestPartitionAngularSlicesOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := randDataset(rng, 256, 3, 0)
	parts, err := Partition(ds, 4, Angular)
	if err != nil {
		t.Fatal(err)
	}
	min := make([]float64, ds.Dims)
	for j := range min {
		min[j] = math.Inf(1)
		for i := 0; i < ds.N; i++ {
			min[j] = math.Min(min[j], float64(ds.Vals[i*ds.Dims+j]))
		}
	}
	prevMax := math.Inf(-1)
	for s, p := range parts {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < p.N; i++ {
			var tail float64
			for j := 1; j < p.Dims; j++ {
				v := float64(p.Vals[i*p.Dims+j]) - min[j]
				tail += v * v
			}
			a := math.Atan2(math.Sqrt(tail), float64(p.Vals[i*p.Dims])-min[0])
			lo, hi = math.Min(lo, a), math.Max(hi, a)
		}
		if lo < prevMax {
			t.Fatalf("angular slice %d starts at angle %v, below slice %d's max %v", s, lo, s-1, prevMax)
		}
		prevMax = hi
	}
}

func TestPartitionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ds := randDataset(rng, 200, 4, 0.3)
	for _, mode := range []PartitionMode{Angular, RoundRobin} {
		a, err := Partition(ds, 5, mode)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Partition(ds, 5, mode)
		if err != nil {
			t.Fatal(err)
		}
		for s := range a {
			if len(a[s].IDs) != len(b[s].IDs) {
				t.Fatalf("%v shard %d size differs across runs", mode, s)
			}
			for i := range a[s].IDs {
				if a[s].IDs[i] != b[s].IDs[i] {
					t.Fatalf("%v shard %d row %d differs across runs", mode, s, i)
				}
			}
		}
	}
}
