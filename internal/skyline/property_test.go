package skyline

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"skycube/internal/data"
	"skycube/internal/dom"
	"skycube/internal/mask"
)

// datasetFromBytes deterministically builds a small low-cardinality dataset
// (ties are frequent, stressing the strict/non-strict split) from raw
// generator output.
func datasetFromBytes(raw []byte, d int) *data.Dataset {
	n := len(raw) / d
	if n < 2 {
		return nil
	}
	vals := make([]float32, n*d)
	for i := range vals {
		vals[i] = float32(raw[i] % 6)
	}
	return data.New(d, vals)
}

// Property: every algorithm agrees with BNL on arbitrary inputs, for both
// the skyline and the extended skyline, in every subspace.
func TestQuickAllAlgorithmsAgree(t *testing.T) {
	f := func(raw []byte, d8, delta8 uint8) bool {
		d := int(d8%4) + 2 // 2..5 dims
		ds := datasetFromBytes(raw, d)
		if ds == nil {
			return true
		}
		delta := mask.Mask(delta8)&mask.Full(d) | 1
		ref := Compute(ds, nil, delta, AlgoBNL, 1)
		for _, algo := range []Algo{AlgoBSkyTree, AlgoHybrid, AlgoPSkyline} {
			got := Compute(ds, nil, delta, algo, 3)
			if !reflect.DeepEqual(got, ref) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(v []reflect.Value, rng *rand.Rand) {
			raw := make([]byte, 60+rng.Intn(700))
			rng.Read(raw)
			v[0] = reflect.ValueOf(raw)
			v[1] = reflect.ValueOf(uint8(rng.Intn(256)))
			v[2] = reflect.ValueOf(uint8(rng.Intn(256)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the skyline of any subspace is contained in its extended
// skyline, and the extended skyline of δ contains the extended skyline of
// every subspace of δ (Definition 2's containment, §2.2).
func TestQuickExtendedContainment(t *testing.T) {
	f := func(raw []byte, delta8, sub8 uint8) bool {
		const d = 4
		ds := datasetFromBytes(raw, d)
		if ds == nil {
			return true
		}
		delta := mask.Mask(delta8)&mask.Full(d) | 1
		sub := mask.Mask(sub8) & delta
		if sub == 0 {
			sub = delta & (-delta) // lowest set bit
		}
		extDelta := toSet(ExtendedSkyline(ds, nil, delta, AlgoBNL, 1))
		res := Compute(ds, nil, delta, AlgoBNL, 1)
		for _, r := range res.Skyline {
			if !extDelta[r] {
				return false
			}
		}
		for _, r := range ExtendedSkyline(ds, nil, sub, AlgoBNL, 1) {
			if !extDelta[r] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(v []reflect.Value, rng *rand.Rand) {
			raw := make([]byte, 40+rng.Intn(400))
			rng.Read(raw)
			v[0] = reflect.ValueOf(raw)
			v[1] = reflect.ValueOf(uint8(rng.Intn(256)))
			v[2] = reflect.ValueOf(uint8(rng.Intn(256)))
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: no skyline member is dominated by any input point, and every
// excluded point is dominated by some skyline member (soundness +
// completeness of the filter).
func TestQuickSkylineSoundComplete(t *testing.T) {
	f := func(raw []byte) bool {
		const d = 3
		ds := datasetFromBytes(raw, d)
		if ds == nil {
			return true
		}
		delta := mask.Full(d)
		res := Compute(ds, nil, delta, AlgoBSkyTree, 1)
		in := toSet(res.Skyline)
		for i := 0; i < ds.N; i++ {
			dominated := false
			for j := 0; j < ds.N && !dominated; j++ {
				if i == j {
					continue
				}
				r := dom.Compare(ds.Point(j), ds.Point(i))
				if dom.Kills(r, delta, false) {
					dominated = true
				}
			}
			if in[int32(i)] == dominated {
				return false // members must be undominated, non-members dominated
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 80,
		Values: func(v []reflect.Value, rng *rand.Rand) {
			raw := make([]byte, 30+rng.Intn(200))
			rng.Read(raw)
			v[0] = reflect.ValueOf(raw)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func toSet(rows []int32) map[int32]bool {
	m := make(map[int32]bool, len(rows))
	for _, r := range rows {
		m[r] = true
	}
	return m
}
