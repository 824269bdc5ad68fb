package data

import (
	"math"
	"reflect"
	"testing"
)

func seqDataset(n, d int) *Dataset {
	vals := make([]float32, n*d)
	for i := range vals {
		vals[i] = float32(i)
	}
	return New(d, vals)
}

func TestPartitionRoundRobin(t *testing.T) {
	ds := seqDataset(10, 2)
	shards, err := Partition(ds, 3, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := [][]int32{{0, 3, 6, 9}, {1, 4, 7}, {2, 5, 8}}
	for s, sh := range shards {
		if !reflect.DeepEqual(sh.IDs, wantIDs[s]) {
			t.Errorf("shard %d ids = %v, want %v", s, sh.IDs, wantIDs[s])
		}
		for r := 0; r < sh.N; r++ {
			global := int(sh.IDs[r])
			if !reflect.DeepEqual(sh.Point(r), ds.Point(global)) {
				t.Errorf("shard %d row %d coordinates diverge from global row %d", s, r, global)
			}
			// The arithmetic id mapping shard nodes use: base s, stride k.
			if global != s+r*3 {
				t.Errorf("shard %d row %d has global id %d, want %d", s, r, global, s+r*3)
			}
		}
	}
}

// TestRangeOffsets pins the balanced contiguous split angular cuts its
// sorted rows at, and that angular shards take exactly those sizes.
func TestRangeOffsets(t *testing.T) {
	off := RangeOffsets(10, 3)
	if !reflect.DeepEqual(off, []int{0, 4, 7, 10}) {
		t.Fatalf("offsets = %v", off)
	}
	shards, err := Partition(seqDataset(10, 2), 3, Angular)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		if sh.N != off[s+1]-off[s] {
			t.Errorf("shard %d has %d rows, want %d", s, sh.N, off[s+1]-off[s])
		}
	}
}

func TestPartitionCoversEveryRowOnce(t *testing.T) {
	ds := seqDataset(23, 3)
	for _, mode := range []PartitionMode{RoundRobin, Angular} {
		for k := 1; k <= 5; k++ {
			shards, err := Partition(ds, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int32]bool{}
			for _, sh := range shards {
				for _, id := range sh.IDs {
					if seen[id] {
						t.Fatalf("%v k=%d: id %d appears twice", mode, k, id)
					}
					seen[id] = true
				}
			}
			if len(seen) != ds.N {
				t.Fatalf("%v k=%d: %d ids covered, want %d", mode, k, len(seen), ds.N)
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	ds := seqDataset(3, 2)
	if _, err := Partition(ds, 0, RoundRobin); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Partition(ds, 4, RoundRobin); err == nil {
		t.Error("k>n accepted")
	}
	if _, err := Partition(ds, 2, PartitionMode(99)); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite(seqDataset(4, 3)); err != nil {
		t.Errorf("finite dataset rejected: %v", err)
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		ds := seqDataset(4, 3)
		ds.Vals[7] = bad // point 2, dimension 1
		err := CheckFinite(ds)
		if err == nil {
			t.Fatalf("value %v accepted", bad)
		}
	}
	if err := CheckFiniteRow([]float32{1, float32(math.NaN())}); err == nil {
		t.Error("NaN row accepted")
	}
	if err := CheckFiniteRow([]float32{1, 2}); err != nil {
		t.Errorf("finite row rejected: %v", err)
	}
}
