package skycube_test

import (
	"math/rand"
	"reflect"
	"testing"

	"skycube"
)

func TestNewUpdaterValidation(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 50, 4, 1)
	if _, err := skycube.NewUpdater(nil, skycube.Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := skycube.NewUpdater(ds, skycube.Options{Algorithm: skycube.STSC}); err == nil {
		t.Fatal("non-MDMC algorithm accepted")
	}
	if _, err := skycube.NewUpdater(ds, skycube.Options{MaxLevel: 2}); err == nil {
		t.Fatal("partial skycube accepted")
	}
	up, err := skycube.NewUpdater(ds, skycube.Options{MaxLevel: 4})
	if err != nil {
		t.Fatalf("MaxLevel == Dims rejected: %v", err)
	}
	up.Close()
}

// TestUpdaterPublicFlow drives the public API end to end — insert, delete,
// flush, pinned reads, compaction — and checks the served snapshot against
// a fresh one-shot build of the final dataset.
func TestUpdaterPublicFlow(t *testing.T) {
	const d = 4
	ds := skycube.GenerateSynthetic(skycube.Independent, 300, d, 21)
	up, err := skycube.NewUpdater(ds, skycube.Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()

	live := make([]int32, ds.Len())
	for i := range live {
		live[i] = int32(i)
	}
	tail := skycube.GenerateSynthetic(skycube.Independent, 60, d, 22)
	for i := 0; i < tail.Len(); i++ {
		id, err := up.Insert(tail.Point(i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	rng := rand.New(rand.NewSource(23))
	for k := 0; k < 40; k++ {
		idx := rng.Intn(len(live))
		if err := up.Delete(live[idx]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:idx], live[idx+1:]...)
	}
	snap := up.Flush()
	if snap.Epoch() != 2 {
		t.Fatalf("epoch after one batch: %d", snap.Epoch())
	}
	if snap.Live() != len(live) {
		t.Fatalf("live = %d, want %d", snap.Live(), len(live))
	}

	checkAgainstFreshBuild(t, snap, live)

	// Pinned read: epoch 1 must still serve the original dataset's answers.
	pinned, ok := up.At(1)
	if !ok {
		t.Fatal("epoch 1 not addressable")
	}
	oracle, _, err := skycube.Build(ds, skycube.Options{Algorithm: skycube.QSkycube, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	full := skycube.FullSpace(d)
	if got, want := pinned.Skyline(full), oracle.Skyline(full); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned epoch 1 full-space skyline diverged:\n got %v\nwant %v", got, want)
	}

	// Compaction folds the overlay; answers must not change.
	compacted := up.Compact()
	if compacted.Epoch() != snap.Epoch()+1 {
		t.Fatalf("compaction epoch %d after %d", compacted.Epoch(), snap.Epoch())
	}
	checkAgainstFreshBuild(t, compacted, live)
	if up.Stats().Compactions != 1 {
		t.Fatalf("compactions = %d", up.Stats().Compactions)
	}
}

// TestUpdaterCrossDevice runs the maintenance path with modelled GPUs in
// the device pool, so the initial build and compactions are scheduled
// cross-device.
func TestUpdaterCrossDevice(t *testing.T) {
	const d = 3
	ds := skycube.GenerateSynthetic(skycube.Correlated, 200, d, 5)
	up, err := skycube.NewUpdater(ds, skycube.Options{
		Threads: 2, GPUs: []skycube.GPUModel{skycube.GTX980}, CPUAlso: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	live := make([]int32, ds.Len())
	for i := range live {
		live[i] = int32(i)
	}
	// Delete current full-space members to affect cuboids, insert a few.
	sky := up.Current().Skyline(skycube.FullSpace(d))
	for _, id := range sky[:min(5, len(sky))] {
		if err := up.Delete(id); err != nil {
			t.Fatal(err)
		}
		for i, v := range live {
			if v == id {
				live = append(live[:i], live[i+1:]...)
				break
			}
		}
	}
	extra := skycube.GenerateSynthetic(skycube.Correlated, 20, d, 6)
	for i := 0; i < extra.Len(); i++ {
		id, err := up.Insert(extra.Point(i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	checkAgainstFreshBuild(t, up.Flush(), live)
	checkAgainstFreshBuild(t, up.Compact(), live)
}

// checkAgainstFreshBuild compares a snapshot with a one-shot QSkycube build
// over the snapshot's live points, on every subspace and for every live
// point's membership. Oracle rows are positions into the live slice, so
// they are remapped to updater ids before comparison.
func checkAgainstFreshBuild(t *testing.T, snap skycube.Snapshot, live []int32) {
	t.Helper()
	rows := make([][]float32, len(live))
	for i, id := range live {
		rows[i] = snap.Point(id)
	}
	final, err := skycube.DatasetFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := skycube.Build(final, skycube.Options{Algorithm: skycube.QSkycube, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	toID := func(positions []int32) []int32 {
		if len(positions) == 0 {
			return nil
		}
		out := make([]int32, len(positions))
		for i, pos := range positions {
			out[i] = live[pos]
		}
		sortInt32s(out)
		return out
	}
	for _, delta := range skycube.AllSubspaces(snap.Dims()) {
		want := toID(oracle.Skyline(delta))
		if got := snap.Skyline(delta); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d δ=%b:\n got %v\nwant %v", snap.Epoch(), delta, got, want)
		}
	}
	for pos, id := range live {
		if got, want := snap.Membership(id), oracle.Membership(int32(pos)); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d membership of id %d: got %v, want %v", snap.Epoch(), id, got, want)
		}
	}
}

func sortInt32s(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
