package skyline

import (
	"encoding/binary"
	"reflect"
	"testing"

	"skycube/internal/data"
	"skycube/internal/mask"
)

// fuzzDataset decodes raw fuzz bytes into a small dataset: the first byte
// picks the dimensionality (2–5), every following pair of bytes is one
// coordinate in [0, 1]. The coarse 16-bit grid makes ties and duplicate
// points common — exactly the inputs where dominance semantics diverge if
// an algorithm gets the strict/non-strict distinction wrong.
func fuzzDataset(raw []byte) *data.Dataset {
	if len(raw) < 1 {
		return nil
	}
	d := 2 + int(raw[0])%4
	raw = raw[1:]
	n := len(raw) / (2 * d)
	if n < 1 {
		return nil
	}
	if n > 256 {
		n = 256
	}
	rows := make([][]float32, n)
	for i := 0; i < n; i++ {
		row := make([]float32, d)
		for j := 0; j < d; j++ {
			v := binary.LittleEndian.Uint16(raw[(i*d+j)*2:])
			row[j] = float32(v) / 65535
		}
		rows[i] = row
	}
	return data.FromRows(rows)
}

// FuzzSkylineEquivalence checks that the four skyline algorithms — the BNL
// reference, the pivot-partitioned BSkyTree, the tiled multicore Hybrid and
// the divide-and-conquer PSkyline — agree on the skyline and the extended
// skyline of arbitrary (tie-heavy) inputs, in the full space and in every
// subspace. The Hybrid engine is held to the BNL reference, which shares none
// of its parts, at one, two and three threads. The BSkyTree filter run with
// every hook set to a counting closure must return what it returns with none.
func FuzzSkylineEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 0})
	f.Add([]byte{3, 0xff, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80,
		0x90, 0xa0, 0xb0, 0xc0, 0xd0, 0xe0, 0xf0, 0x00, 0x11, 0x22})
	// 120 points at d=3 on a grid of four values per dimension: above
	// pivotLeafSize, so the filter partitions, and full of ties.
	grid := []byte{1}
	for i := range 120 * 3 {
		grid = append(grid, 0, byte(i*i*7+i/3)%4*0x55)
	}
	f.Add(grid)
	f.Fuzz(func(t *testing.T, raw []byte) {
		ds := fuzzDataset(raw)
		if ds == nil {
			t.Skip("too few bytes for a dataset")
		}
		var pivots, events int
		hooks := &PivotHooks{
			Pivot:     func(int, []int32, int32) { pivots++ },
			Partition: func(int, int32, mask.Mask, bool) { events++ },
			Test:      func(int, int) { events++ },
			Compare:   func(int32, int32) { events++ },
			Keep:      func(int) { events++ },
		}
		algos := []Algo{AlgoBSkyTree, AlgoHybrid, AlgoPSkyline}
		for _, delta := range mask.Subspaces(ds.Dims) {
			ref := Compute(ds, nil, delta, AlgoBNL, 1)
			ext := PivotFilter(ds, allRows(ds.N), delta, true, hooks)
			sky := PivotFilter(ds, ext, delta, false, hooks)
			if bst := Compute(ds, nil, delta, AlgoBSkyTree, 1); !reflect.DeepEqual(sky, bst.Skyline) ||
				!reflect.DeepEqual(DiffSorted(ext, sky), bst.ExtOnly) {
				t.Fatalf("BSkyTree with hooks, δ=%0*b: S %v, S⁺∖S %v; without %+v",
					ds.Dims, delta, sky, DiffSorted(ext, sky), bst)
			}
			if (ds.N > 1 && events == 0) || (ds.N > pivotLeafSize && pivots == 0) {
				t.Fatalf("%d rows, δ=%0*b: %d pivots, %d other events reported", ds.N, ds.Dims, delta, pivots, events)
			}
			for _, threads := range []int{1, 3} {
				if got := Compute(ds, nil, delta, AlgoHybrid, threads); !reflect.DeepEqual(got, ref) {
					t.Fatalf("Hybrid, %d threads, δ=%0*b: %+v, BNL %+v", threads, ds.Dims, delta, got, ref)
				}
			}
			for _, algo := range algos {
				got := Compute(ds, nil, delta, algo, 2)
				if !reflect.DeepEqual(got.Skyline, ref.Skyline) {
					t.Fatalf("%v: skyline of δ=%0*b diverges from BNL\n got %v\nwant %v",
						algo, ds.Dims, delta, got.Skyline, ref.Skyline)
				}
				if !reflect.DeepEqual(got.ExtOnly, ref.ExtOnly) {
					t.Fatalf("%v: extended skyline of δ=%0*b diverges from BNL\n got %v\nwant %v",
						algo, ds.Dims, delta, got.ExtOnly, ref.ExtOnly)
				}
			}
		}
	})
}
