package skycube

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Table 1 flights, dimension 0 = Arrival, 1 = Duration, 2 = Price.
func flightDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := DatasetFromRows([][]float32{
		{12.20, 17, 120},
		{9.00, 12, 148},
		{8.20, 13, 169},
		{21.25, 3, 186},
		{21.25, 5, 196},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

var flightSkylines = map[Subspace][]int32{
	0b100: {0}, 0b010: {3}, 0b001: {2},
	0b101: {0, 1, 2}, 0b110: {0, 1, 3}, 0b011: {1, 2, 3},
	0b111: {0, 1, 2, 3},
}

func TestBuildAllAlgorithmsOnFlights(t *testing.T) {
	ds := flightDataset(t)
	for _, algo := range []Algorithm{QSkycube, PQSkycube, STSC, SDSC, MDMC} {
		cube, stats, err := Build(ds, Options{Algorithm: algo, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if stats.Elapsed <= 0 {
			t.Errorf("%v: no elapsed time", algo)
		}
		if cube.Dims() != 3 || cube.MaxLevel() != 3 {
			t.Errorf("%v: dims=%d maxLevel=%d", algo, cube.Dims(), cube.MaxLevel())
		}
		for delta, want := range flightSkylines {
			if got := cube.Skyline(delta); !reflect.DeepEqual(got, want) {
				t.Errorf("%v: S_%03b = %v, want %v", algo, delta, got, want)
			}
		}
		if cube.Skyline(0) != nil || cube.Skyline(8) != nil {
			t.Errorf("%v: out-of-range subspace should be nil", algo)
		}
	}
}

func TestBuildOnGPUAndCrossDevice(t *testing.T) {
	ds := GenerateSynthetic(Anticorrelated, 600, 5, 7)
	ref, _, err := Build(ds, Options{Algorithm: MDMC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Algorithm: MDMC, GPUs: []GPUModel{GTX980}},
		{Algorithm: SDSC, GPUs: []GPUModel{GTX980}},
		{Algorithm: MDMC, GPUs: []GPUModel{GTX980, GTXTitan}},
		{Algorithm: SDSC, GPUs: []GPUModel{GTX980, GTX980}},
		{Algorithm: MDMC, GPUs: []GPUModel{GTX980, GTX980, GTXTitan}, CPUAlso: true, Threads: 2},
		{Algorithm: SDSC, GPUs: []GPUModel{GTX980, GTXTitan}, CPUAlso: true, Threads: 2},
	}
	for _, opt := range cases {
		cube, stats, err := Build(ds, opt)
		if err != nil {
			t.Fatalf("%v GPUs=%d CPUAlso=%v: %v", opt.Algorithm, len(opt.GPUs), opt.CPUAlso, err)
		}
		for _, delta := range AllSubspaces(5) {
			if !reflect.DeepEqual(cube.Skyline(delta), ref.Skyline(delta)) {
				t.Errorf("%v GPUs=%d: δ=%b mismatch", opt.Algorithm, len(opt.GPUs), delta)
			}
		}
		if len(stats.Shares) == 0 {
			t.Errorf("%v GPUs=%d: run reported no shares", opt.Algorithm, len(opt.GPUs))
		}
		if len(stats.GPUModelSeconds) != len(opt.GPUs) {
			t.Errorf("%v: %d model times for %d GPUs", opt.Algorithm, len(stats.GPUModelSeconds), len(opt.GPUs))
		}
	}
}

func TestBuildErrors(t *testing.T) {
	ds := flightDataset(t)
	if _, _, err := Build(nil, Options{}); err == nil {
		t.Error("nil dataset should error")
	}
	if _, _, err := Build(ds, Options{Algorithm: STSC, GPUs: []GPUModel{GTX980}}); err == nil {
		t.Error("STSC on GPU should error (no single-threaded GPU algorithm)")
	}
	if _, _, err := Build(ds, Options{Algorithm: QSkycube, GPUs: []GPUModel{GTX980}}); err == nil {
		t.Error("QSkycube on GPU should error")
	}
	if _, _, err := Build(ds, Options{Algorithm: PQSkycube, GPUs: []GPUModel{GTX980}}); err == nil {
		t.Error("PQSkycube on GPU should error")
	}
	if _, _, err := Build(ds, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm should error")
	}
	for _, opt := range []Options{
		{Algorithm: SDSC, GPUs: []GPUModel{GTX980}, CPUAlso: true, SDSCHook: HookGGS},
		{Algorithm: SDSC, GPUs: []GPUModel{GTXTitan}, CPUAlso: true, SDSCHook: HookPSkyline},
		{Algorithm: SDSC, SDSCHook: SDSCHook(9)},
	} {
		if _, _, err := Build(ds, opt); err == nil {
			t.Errorf("SDSC hook %d with GPUs=%d CPUAlso=%v should error", opt.SDSCHook, len(opt.GPUs), opt.CPUAlso)
		}
	}
}

func TestPartialBuild(t *testing.T) {
	ds := GenerateSynthetic(Independent, 300, 6, 3)
	for _, algo := range []Algorithm{STSC, MDMC} {
		cube, _, err := Build(ds, Options{Algorithm: algo, Threads: 2, MaxLevel: 2})
		if err != nil {
			t.Fatal(err)
		}
		if cube.MaxLevel() != 2 {
			t.Errorf("%v: MaxLevel = %d, want 2", algo, cube.MaxLevel())
		}
		if got := cube.Skyline(FullSpace(6)); got != nil {
			t.Errorf("%v: full space materialised in partial cube: %v", algo, got)
		}
		if got := cube.Skyline(SubspaceOf(0, 3)); got == nil {
			t.Errorf("%v: 2-d subspace missing from partial cube", algo)
		}
	}
}

func TestSubspaceHelpers(t *testing.T) {
	if FullSpace(4) != 0b1111 {
		t.Error("FullSpace wrong")
	}
	if SubspaceOf(0, 2) != 0b101 {
		t.Error("SubspaceOf wrong")
	}
	if !reflect.DeepEqual(SubspaceDims(0b101), []int{0, 2}) {
		t.Error("SubspaceDims wrong")
	}
	if SubspaceSize(0b101) != 2 {
		t.Error("SubspaceSize wrong")
	}
	if len(AllSubspaces(3)) != 7 {
		t.Error("AllSubspaces wrong")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for algo, want := range map[Algorithm]string{
		MDMC: "MDMC", STSC: "STSC", SDSC: "SDSC",
		PQSkycube: "PQSkycube", QSkycube: "QSkycube", Algorithm(42): "?",
	} {
		if algo.String() != want {
			t.Errorf("%d.String() = %s, want %s", algo, algo.String(), want)
		}
	}
}

func TestDatasetValidation(t *testing.T) {
	if _, err := NewDataset(0, nil); err == nil {
		t.Error("zero dims should error")
	}
	if _, err := NewDataset(3, []float32{1, 2}); err == nil {
		t.Error("misaligned values should error")
	}
	if _, err := NewDataset(MaxDims+1, make([]float32, MaxDims+1)); err == nil {
		t.Error("too many dims should error")
	}
	if _, err := DatasetFromRows(nil); err == nil {
		t.Error("no rows should error")
	}
	if _, err := DatasetFromRows([][]float32{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
	ds, err := NewDataset(2, []float32{1, 2, 3, 4})
	if err != nil || ds.Len() != 2 || ds.Dims() != 2 {
		t.Errorf("NewDataset: %v, %dx%d", err, ds.Len(), ds.Dims())
	}
	if ds.Point(1)[0] != 3 {
		t.Error("Point accessor wrong")
	}
}

func TestDatasetIO(t *testing.T) {
	ds := GenerateSynthetic(Correlated, 50, 4, 9)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 50 || back.Dims() != 4 {
		t.Errorf("round trip: %dx%d", back.Len(), back.Dims())
	}
	if _, err := ReadDataset(strings.NewReader("")); err == nil {
		t.Error("empty read should error")
	}
}

func TestIDCountComparesRepresentations(t *testing.T) {
	// The HashCube should store dramatically fewer ids than the lattice for
	// the same skycube (App. B.1: up to w-fold compression).
	ds := GenerateSynthetic(Independent, 500, 8, 5)
	lat, _, err := Build(ds, Options{Algorithm: STSC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	hc, _, err := Build(ds, Options{Algorithm: MDMC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hc.IDCount() >= lat.IDCount() {
		t.Errorf("HashCube ids (%d) should be below lattice ids (%d)", hc.IDCount(), lat.IDCount())
	}
}

func TestGenerateRealWorkloads(t *testing.T) {
	for _, w := range []RealWorkload{NBA, Household, Covertype, Weather} {
		ds := GenerateReal(w, 0.005, 3)
		if ds.Len() < 64 {
			t.Errorf("%v: too few rows", w)
		}
	}
}

func TestSDSCHookVariants(t *testing.T) {
	ds := GenerateSynthetic(Independent, 500, 4, 11)
	ref, _, err := Build(ds, Options{Algorithm: SDSC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Options{
		{Algorithm: SDSC, Threads: 2, SDSCHook: HookPSkyline},
		{Algorithm: SDSC, GPUs: []GPUModel{GTX980}, SDSCHook: HookGGS},
		{Algorithm: SDSC, GPUs: []GPUModel{GTX980, GTXTitan}, SDSCHook: HookGGS},
	}
	for _, opt := range cases {
		cube, _, err := Build(ds, opt)
		if err != nil {
			t.Fatalf("hook %d: %v", opt.SDSCHook, err)
		}
		for _, delta := range AllSubspaces(4) {
			if !reflect.DeepEqual(cube.Skyline(delta), ref.Skyline(delta)) {
				t.Errorf("hook %d: δ=%b mismatch", opt.SDSCHook, delta)
			}
		}
	}
	// Hooks on the wrong architecture are rejected.
	if _, _, err := Build(ds, Options{Algorithm: SDSC, SDSCHook: HookGGS}); err == nil {
		t.Error("GGS on the CPU should error")
	}
	if _, _, err := Build(ds, Options{Algorithm: SDSC, GPUs: []GPUModel{GTX980}, SDSCHook: HookPSkyline}); err == nil {
		t.Error("PSkyline on the GPU should error")
	}
	// A hook runs on a cross-device list only if every device can run it.
	for _, hook := range []SDSCHook{HookPSkyline, HookGGS} {
		opt := Options{Algorithm: SDSC, Threads: 2, GPUs: []GPUModel{GTX980}, CPUAlso: true, SDSCHook: hook}
		if _, _, err := Build(ds, opt); err == nil {
			t.Errorf("hook %d on the CPU and a GPU should error", hook)
		}
	}
}

func TestMembershipMatchesSkylinesAcrossRepresentations(t *testing.T) {
	ds := GenerateSynthetic(Anticorrelated, 300, 5, 17)
	lat, _, err := Build(ds, Options{Algorithm: STSC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	hc, _, err := Build(ds, Options{Algorithm: MDMC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth from the per-subspace listings.
	want := make(map[int32][]Subspace)
	for _, delta := range AllSubspaces(5) {
		for _, id := range lat.Skyline(delta) {
			want[id] = append(want[id], delta)
		}
	}
	for id := int32(0); id < int32(ds.Len()); id++ {
		wl := want[id]
		if got := lat.Membership(id); !reflect.DeepEqual(got, wl) {
			t.Fatalf("lattice membership of %d = %v, want %v", id, got, wl)
		}
		if got := hc.Membership(id); !reflect.DeepEqual(got, wl) {
			t.Fatalf("hashcube membership of %d = %v, want %v", id, got, wl)
		}
	}
}

func TestMembershipPartialCube(t *testing.T) {
	ds := GenerateSynthetic(Independent, 200, 5, 23)
	cube, _, err := Build(ds, Options{Algorithm: MDMC, Threads: 2, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < int32(ds.Len()); id++ {
		for _, delta := range cube.Membership(id) {
			if SubspaceSize(delta) > 2 {
				t.Fatalf("partial cube reported membership above MaxLevel: δ=%b", delta)
			}
		}
	}
}

func TestReadCSVAndNormalize(t *testing.T) {
	in := "name,price,rating\na,100,4.5\nb,200,5.0\nc,150,3.0\n"
	ds, err := ReadCSVDataset(strings.NewReader(in), CSVOptions{Header: true, Columns: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || ds.Dims() != 2 {
		t.Fatalf("shape %dx%d", ds.Len(), ds.Dims())
	}
	norm, err := ds.Normalize([]Direction{LowerBetter, HigherBetter})
	if err != nil {
		t.Fatal(err)
	}
	cube, _, err := Build(norm, Options{Algorithm: MDMC, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// a (cheapest-but-good) and b (best-rated) are the skyline; c is
	// dominated by a (more expensive, worse rating).
	got := cube.Skyline(FullSpace(2))
	if !reflect.DeepEqual(got, []int32{0, 1}) {
		t.Errorf("skyline = %v, want [0 1]", got)
	}
	if _, err := ds.Normalize([]Direction{LowerBetter}); err == nil {
		t.Error("direction count mismatch should error")
	}
	if _, err := ReadCSVDataset(strings.NewReader("x\n"), CSVOptions{}); err == nil {
		t.Error("non-numeric csv should error")
	}
}
