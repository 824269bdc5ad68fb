package skycube_test

import (
	"math/rand"
	"reflect"
	"testing"

	"skycube"
)

// TestDurableUpdaterRoundTrip drives the public durable API end to end:
// a fresh data directory, a few batches and a compaction, a clean close,
// then recovery — the reopened updater must answer every subspace query
// identically and report the replayed record count.
func TestDurableUpdaterRoundTrip(t *testing.T) {
	const d = 3
	dir := t.TempDir()
	ds := skycube.GenerateSynthetic(skycube.Independent, 120, d, 31)
	opt := skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, CheckpointEvery: -1},
	}
	up, err := skycube.NewUpdater(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if up.Store() == nil {
		t.Fatal("durable updater has no store")
	}

	live := make([]int32, ds.Len())
	for i := range live {
		live[i] = int32(i)
	}
	tail := skycube.GenerateSynthetic(skycube.Independent, 30, d, 32)
	for i := 0; i < tail.Len(); i++ {
		id, err := up.Insert(tail.Point(i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	rng := rand.New(rand.NewSource(33))
	for k := 0; k < 20; k++ {
		idx := rng.Intn(len(live))
		if err := up.Delete(live[idx]); err != nil {
			t.Fatal(err)
		}
		live = append(live[:idx], live[idx+1:]...)
	}
	up.Flush()
	up.Compact()
	for i := 0; i < 10; i++ {
		id, err := up.Insert(tail.Point(i))
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	final := up.Flush()
	wantEpoch, wantLive := final.Epoch(), final.Live()
	want := map[skycube.Subspace][]int32{}
	for _, delta := range skycube.AllSubspaces(d) {
		want[delta] = final.Skyline(delta)
	}
	up.Close()

	re, err := skycube.NewUpdater(ds, opt)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if re.Replayed() == 0 {
		t.Fatal("recovery replayed no records")
	}
	snap := re.Current()
	if snap.Epoch() != wantEpoch || snap.Live() != wantLive {
		t.Fatalf("recovered epoch %d with %d live, want epoch %d with %d live",
			snap.Epoch(), snap.Live(), wantEpoch, wantLive)
	}
	for _, delta := range skycube.AllSubspaces(d) {
		if got := snap.Skyline(delta); !reflect.DeepEqual(got, want[delta]) {
			t.Fatalf("recovered δ=%b skyline:\n got %v\nwant %v", delta, got, want[delta])
		}
	}
	checkAgainstFreshBuild(t, snap, live)

	// The recovered updater keeps working: mutate, flush, verify.
	id, err := re.Insert(tail.Point(11))
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, id)
	checkAgainstFreshBuild(t, re.Flush(), live)
}

// TestDurableOpenUpdaterWithoutDataset: a durable restart needs no data
// file — OpenUpdater recovers purely from the directory and must match the
// dataset-seeded reopen exactly. A fresh directory is refused: a first
// build needs the data.
func TestDurableOpenUpdaterWithoutDataset(t *testing.T) {
	const d = 3
	dir := t.TempDir()
	ds := skycube.GenerateSynthetic(skycube.Independent, 80, d, 51)
	opt := skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, CheckpointEvery: -1},
	}
	up, err := skycube.NewUpdater(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	tail := skycube.GenerateSynthetic(skycube.Independent, 20, d, 52)
	for i := 0; i < tail.Len(); i++ {
		if _, err := up.Insert(tail.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := up.Delete(3); err != nil {
		t.Fatal(err)
	}
	final := up.Flush()
	wantEpoch, wantLive := final.Epoch(), final.Live()
	want := map[skycube.Subspace][]int32{}
	for _, delta := range skycube.AllSubspaces(d) {
		want[delta] = final.Skyline(delta)
	}
	up.Close()

	re, err := skycube.OpenUpdater(opt)
	if err != nil {
		t.Fatalf("OpenUpdater: %v", err)
	}
	defer re.Close()
	if re.Replayed() == 0 {
		t.Fatal("recovery replayed no records")
	}
	snap := re.Current()
	if snap.Epoch() != wantEpoch || snap.Live() != wantLive {
		t.Fatalf("recovered epoch %d with %d live, want epoch %d with %d live",
			snap.Epoch(), snap.Live(), wantEpoch, wantLive)
	}
	for _, delta := range skycube.AllSubspaces(d) {
		if got := snap.Skyline(delta); !reflect.DeepEqual(got, want[delta]) {
			t.Fatalf("recovered δ=%b skyline:\n got %v\nwant %v", delta, got, want[delta])
		}
	}
	// The recovered updater keeps working without the dataset around.
	if _, err := re.Insert(tail.Point(0)); err != nil {
		t.Fatal(err)
	}
	re.Flush()

	if _, err := skycube.OpenUpdater(skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: t.TempDir(), CheckpointEvery: -1},
	}); err == nil {
		t.Fatal("OpenUpdater accepted a directory with nothing to recover")
	}
	if _, err := skycube.OpenUpdater(skycube.Options{Threads: 2}); err == nil {
		t.Fatal("OpenUpdater accepted an empty Durable.Dir")
	}
}

// TestInMemoryDefaultUnchanged: without Durable.Dir nothing touches disk
// and the updater reports no durability subsystem.
func TestInMemoryDefaultUnchanged(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 50, 3, 41)
	up, err := skycube.NewUpdater(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if up.Store() != nil {
		t.Fatal("in-memory updater reports a durability store")
	}
	if up.Replayed() != 0 {
		t.Fatalf("in-memory updater replayed %d records", up.Replayed())
	}
}

// TestDurableUpdaterBadPolicy: an unknown fsync policy is a construction
// error, not a silent fallback.
func TestDurableUpdaterBadPolicy(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 20, 3, 42)
	_, err := skycube.NewUpdater(ds, skycube.Options{
		Durable: skycube.DurableOptions{Dir: t.TempDir(), Fsync: "maybe"},
	})
	if err == nil {
		t.Fatal("unknown fsync policy accepted")
	}
}

// TestRecoveryAcrossFoldedCompaction: a compaction between a checkpoint and a
// power cut is replayed from its marker as a fold of the replayed epoch. The
// log after the checkpoint holds insert flushes, a delete batch whose victims
// include full-space skyline members (so outsiders turn loose before the
// fold), the compaction, and one more such delete batch over the folded base.
// The reopened updater must serve the pre-crash epoch and live count, and
// every skyline and membership of a one-shot QSkycube build over the
// survivors.
func TestRecoveryAcrossFoldedCompaction(t *testing.T) {
	const d, n = 5, 1500
	dir := t.TempDir()
	ds := skycube.GenerateSynthetic(skycube.Independent, n, d, 61)
	opt := skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, Fsync: "always", CheckpointEvery: -1},
	}
	up, err := skycube.NewUpdater(ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	if err := up.Store().Checkpoint(up.Delta()); err != nil {
		t.Fatal(err)
	}
	tail := skycube.GenerateSynthetic(skycube.Independent, 400, d, 62)
	for b := 0; b < 2; b++ {
		for i := b * 200; i < (b+1)*200; i++ {
			id, err := up.Insert(tail.Point(i))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		}
		up.Flush()
	}
	rng := rand.New(rand.NewSource(63))
	deleteBatch := func() {
		sky := up.Current().Skyline(skycube.FullSpace(d))
		rng.Shuffle(len(sky), func(i, j int) { sky[i], sky[j] = sky[j], sky[i] })
		for k := 0; k < 25; k++ {
			id := live[rng.Intn(len(live))]
			if k < 5 {
				id = sky[k]
			}
			if err := up.Delete(id); err != nil {
				k-- // already a victim: draw again
				continue
			}
			for i, v := range live {
				if v == id {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		}
		up.Flush()
	}
	deleteBatch()
	up.Compact()
	deleteBatch()
	before := up.Current()
	if err := up.Store().CrashForTest(); err != nil {
		t.Fatal(err)
	}
	up.Close()

	re, err := skycube.OpenUpdater(opt)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer re.Close()
	if got := re.Stats().Compactions; re.Replayed() == 0 || got != 1 {
		t.Fatalf("replayed %d records and %d compactions, want the log since the checkpoint", re.Replayed(), got)
	}
	snap := re.Current()
	if snap.Epoch() != before.Epoch() || snap.Live() != before.Live() || snap.Live() != len(live) {
		t.Fatalf("recovered epoch %d with %d live, want epoch %d with %d live (%d acknowledged)",
			snap.Epoch(), snap.Live(), before.Epoch(), before.Live(), len(live))
	}
	checkAgainstFreshBuild(t, snap, live)
}
