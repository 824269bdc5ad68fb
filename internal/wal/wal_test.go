package wal_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"skycube/internal/data"
	"skycube/internal/delta"
	"skycube/internal/gen"
	"skycube/internal/mask"
	"skycube/internal/qskycube"
	"skycube/internal/wal"
)

// openDurable mirrors the production bootstrap/recovery sequence exactly:
// fresh directories build the updater from the dataset and lay down the
// initial checkpoint; recovered ones rebuild at the checkpoint and replay
// the tail. Only then is the journal attached, so replayed mutations are
// never re-journaled.
func openDurable(t *testing.T, ds *data.Dataset, wopt wal.Options) (*delta.Updater, *wal.Store, int) {
	t.Helper()
	dopt := delta.Options{Threads: 2}
	s, rec, err := wal.Open(wopt)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	var u *delta.Updater
	replayed := 0
	if rec == nil {
		if ds == nil {
			t.Fatal("expected recovery, got a fresh directory")
		}
		u, err = delta.NewUpdaterFrom(delta.RestoreState{
			Dims: ds.Dims, Epoch: 1, Live: ds.N, Vals: ds.Vals[:ds.N*ds.Dims],
		}, dopt)
		if err != nil {
			t.Fatalf("initial build: %v", err)
		}
		if err := s.Checkpoint(u); err != nil {
			t.Fatalf("initial checkpoint: %v", err)
		}
	} else {
		u, err = delta.NewUpdaterFrom(rec.State, dopt)
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if replayed, err = s.Replay(u); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	u.AttachJournal(s)
	s.AttachUpdater(u)
	return u, s, replayed
}

// fingerprint captures everything recovery promises to restore: the epoch,
// the live count, and every subspace skyline.
func fingerprint(s *delta.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d live=%d len=%d\n", s.Epoch(), s.Live(), s.Len())
	for d := mask.Mask(1); int(d) <= mask.NumSubspaces(s.Dims()); d++ {
		fmt.Fprintf(&b, "%b:%v\n", d, s.Skyline(d))
	}
	return b.String()
}

// mutate runs one batch — k inserts, then up to del deletes of low ids —
// and flushes it.
func mutate(t *testing.T, u *delta.Updater, k, del int, seed int64) *delta.Snapshot {
	t.Helper()
	extra := gen.Synthetic(gen.Independent, k, u.Current().Dims(), seed)
	for i := 0; i < extra.N; i++ {
		if _, err := u.Insert(extra.Point(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	snap := u.Current()
	for id := int32(0); id < int32(snap.Len()) && del > 0; id++ {
		if snap.Alive(id) {
			if err := u.Delete(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			del--
		}
	}
	return u.Flush()
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	return m
}

func snapFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "snap-*.ck"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(m)
	return m
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(b)) <= off {
		t.Fatalf("%s is %d bytes, cannot flip offset %d", path, len(b), off)
	}
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, _, err := wal.Open(wal.Options{}); err == nil {
		t.Fatal("empty Dir accepted")
	}
	if _, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("unknown fsync policy accepted")
	}
}

// TestCleanShutdownRoundTrip is the core durability contract: mutate,
// close cleanly, reopen, and the recovered snapshot answers every subspace
// query identically — under every fsync policy, because Close always
// syncs.
func TestCleanShutdownRoundTrip(t *testing.T) {
	for _, policy := range []string{wal.FsyncAlways, wal.FsyncInterval, wal.FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			ds := gen.Synthetic(gen.Independent, 60, 3, 11)
			wopt := wal.Options{Dir: dir, Fsync: policy, SyncInterval: 5 * time.Millisecond, CheckpointEvery: -1}
			u, s, _ := openDurable(t, ds, wopt)
			mutate(t, u, 12, 4, 101)
			mutate(t, u, 7, 2, 102)
			u.Compact()
			mutate(t, u, 5, 1, 103)
			want := fingerprint(u.Current())
			u.Close()
			if err := s.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			u2, s2, replayed := openDurable(t, nil, wopt)
			defer func() { u2.Close(); s2.Close() }()
			if replayed == 0 {
				t.Fatal("no records replayed")
			}
			if got := fingerprint(u2.Current()); got != want {
				t.Fatalf("recovered state diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCrashAfterFsync: a power cut after the ack-path fsync loses nothing
// — the replayed state is byte-for-byte the last flushed snapshot.
func TestCrashAfterFsync(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 50, 3, 7)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 10, 3, 201)
	snap := mutate(t, u, 6, 2, 202)
	want := fingerprint(snap)
	if err := s.CrashForTest(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	u.Close()

	u2, s2, replayed := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	if replayed == 0 {
		t.Fatal("no records replayed")
	}
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("recovered state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestCrashBeforeFsync: records appended but never committed (the window
// before the ack-path fsync) vanish in a crash, and recovery lands on the
// last durable epoch instead of a half-applied batch.
func TestCrashBeforeFsync(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 8)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	durable := mutate(t, u, 8, 2, 301) // flushed => committed => fsynced
	want := fingerprint(durable)
	extra := gen.Synthetic(gen.Independent, 3, 3, 302)
	for i := 0; i < extra.N; i++ { // appended, buffered, never committed
		if _, err := u.Insert(extra.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CrashForTest(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	u.Close()

	u2, s2, _ := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("recovered past the durable mark:\n got %s\nwant %s", got, want)
	}
	if ins, dels := u2.Pending(); ins != 0 || dels != 0 {
		t.Fatalf("uncommitted mutations resurrected: %d inserts, %d deletes pending", ins, dels)
	}
}

// TestCrashAfterCompact: a compaction journals its marker before the
// rebuild and commits it while the base is rebuilt. A power cut right after
// it returns recovers its epoch and live count, keeps the inserts buffered
// on either side of the marker pending, and serves every skyline of a
// one-shot QSkycube build over the survivors.
func TestCrashAfterCompact(t *testing.T) {
	const d = 3
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Anticorrelated, 120, d, 17)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 30, 12, 501)
	extra := gen.Synthetic(gen.Anticorrelated, 4, d, 502)
	if _, err := u.Insert(extra.Point(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan *delta.Snapshot)
	go func() { done <- u.Compact() }()
	for i := 1; i < extra.N; i++ { // racing the rebuild: before or after the marker
		if _, err := u.Insert(extra.Point(i)); err != nil {
			t.Fatal(err)
		}
	}
	compacted := <-done
	if err := s.Commit(); err != nil { // the racing inserts' own ack
		t.Fatal(err)
	}
	if err := s.CrashForTest(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	u.Close()

	u2, s2, _ := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	got := u2.Current()
	if got.Epoch() != compacted.Epoch() || got.Live() != compacted.Live() {
		t.Fatalf("recovered epoch %d with %d live, compaction published epoch %d with %d",
			got.Epoch(), got.Live(), compacted.Epoch(), compacted.Live())
	}
	if ins, dels := u2.Pending(); ins != extra.N || dels != 0 {
		t.Fatalf("recovered %d pending inserts and %d deletes, want %d and 0", ins, dels, extra.N)
	}
	var live []int32
	var vals []float32
	for id := int32(0); id < int32(got.Len()); id++ {
		if got.Alive(id) {
			live = append(live, id)
			vals = append(vals, got.Point(id)...)
		}
	}
	oracle := qskycube.Build(data.New(d, vals), qskycube.Options{Threads: 1})
	for delta := mask.Mask(1); int(delta) <= mask.NumSubspaces(d); delta++ {
		var want []int32
		for _, row := range oracle.Skyline(delta) {
			want = append(want, live[row])
		}
		slices.Sort(want)
		if sky := got.Skyline(delta); !slices.Equal(sky, want) {
			t.Fatalf("δ=%b: recovered skyline %v, one-shot QSkycube %v", delta, sky, want)
		}
	}
}

// TestFailedWritePoisonsStore: Err reports nothing on a healthy store and,
// without any I/O of its own, the failure every later Commit returns.
func TestFailedWritePoisonsStore(t *testing.T) {
	for _, policy := range []string{wal.FsyncAlways, wal.FsyncNever} {
		t.Run(policy, func(t *testing.T) {
			s, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: policy, CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.LogDelete(1, 3); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := s.Err(); err != nil {
				t.Fatalf("healthy store reports %v", err)
			}
			s.BreakForTest()
			if err := s.LogDelete(1, 4); err != nil {
				t.Fatal(err) // buffered: the write fails at the commit
			}
			cerr := s.Commit()
			if cerr == nil {
				t.Fatal("commit to a closed file succeeded")
			}
			if err := s.Err(); err == nil || err.Error() != cerr.Error() {
				t.Fatalf("Err() = %v after the commit failed with %v", err, cerr)
			}
			if err := s.Commit(); err == nil {
				t.Fatal("a commit after a failed one succeeded")
			}
		})
	}
}

// TestTornTailTruncated: a frame cut off mid-record — the residue of a
// crash during a group commit — is truncated away and recovery proceeds
// with every record before it.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 9)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 9, 2, 401)
	want := fingerprint(u.Current())
	u.Close()
	s.Close()

	segs := segFiles(t, dir)
	active := segs[len(segs)-1]
	// A frame header declaring 100 payload bytes, followed by only 10: the
	// file ends mid-record.
	torn := binary.LittleEndian.AppendUint32(nil, 100)
	torn = binary.LittleEndian.AppendUint32(torn, 0xdeadbeef)
	torn = append(torn, make([]byte, 10)...)
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(active)

	u2, s2, _ := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("recovered state diverged after torn-tail repair:\n got %s\nwant %s", got, want)
	}
	after, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Fatalf("torn bytes not truncated: %d -> %d", before.Size(), after.Size())
	}
}

// TestInteriorCorruptionRefused: a CRC-corrupt record with intact records
// after it means the disk lied; recovery must fail loud, not skip it.
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 10)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 9, 2, 501)
	u.Close()
	s.Close()

	segs := segFiles(t, dir)
	// Corrupt the first record's payload: segment header is 16 bytes, the
	// frame header 8 more, so offset 24 is the first payload byte.
	flipByte(t, segs[len(segs)-1], 24)

	if _, _, err := wal.Open(wopt); err == nil {
		t.Fatal("interior corruption recovered silently")
	} else if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestSnapshotCorruption: a corrupt newest snapshot falls back to an older
// valid one; no valid snapshot at all fails loud.
func TestSnapshotCorruption(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 12)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 6, 1, 601)
	want := fingerprint(u.Current())
	u.Close()
	s.Close()

	// A garbage file wearing a newer snapshot's name: skipped with a
	// warning, recovery proceeds from the real one.
	fake := filepath.Join(dir, "snap-00000000000000ff.ck")
	if err := os.WriteFile(fake, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	u2, s2, _ := openDurable(t, nil, wopt)
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("fallback recovery diverged:\n got %s\nwant %s", got, want)
	}
	u2.Close()
	s2.Close()
	os.Remove(fake)

	// Corrupt the only real snapshot: nothing to fall back to.
	snaps := snapFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("want 1 snapshot, have %v", snaps)
	}
	flipByte(t, snaps[0], 20)
	if _, _, err := wal.Open(wopt); err == nil {
		t.Fatal("corrupt-only-snapshot recovered silently")
	} else if !strings.Contains(err.Error(), "no snapshot passes verification") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestCheckpointTruncates: a checkpoint leaves exactly one snapshot and
// one (empty) active segment, and recovery from it replays zero records.
func TestCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 50, 3, 13)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 10, 3, 701)
	mutate(t, u, 4, 1, 702)
	want := fingerprint(u.Current())
	if err := s.Checkpoint(u); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if segs, snaps := segFiles(t, dir), snapFiles(t, dir); len(segs) != 1 || len(snaps) != 1 {
		t.Fatalf("after checkpoint: %d segments, %d snapshots", len(segs), len(snaps))
	}
	u.Close()
	s.Close()

	u2, s2, replayed := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	if replayed != 0 {
		t.Fatalf("replayed %d records from a fresh checkpoint", replayed)
	}
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("checkpoint state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointCrashWindows snapshots the directory inside the two crash
// windows of the checkpoint protocol — just before and just after the
// atomic rename — and verifies both recover to the same state: the old
// (snapshot, tail) pair before the rename, the new one after.
func TestCheckpointCrashWindows(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 50, 3, 14)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 10, 3, 801)
	mutate(t, u, 5, 1, 802)
	want := fingerprint(u.Current())

	var beforeDir, afterDir string
	s.TestBeforeRename = func() { beforeDir = copyDir(t, dir) }
	s.TestAfterRename = func() { afterDir = copyDir(t, dir) }
	if err := s.Checkpoint(u); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	u.Close()
	s.Close()

	for name, d := range map[string]string{"before-rename": beforeDir, "after-rename": afterDir} {
		wopt := wal.Options{Dir: d, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
		u2, s2, _ := openDurable(t, nil, wopt)
		if got := fingerprint(u2.Current()); got != want {
			t.Fatalf("%s recovery diverged:\n got %s\nwant %s", name, got, want)
		}
		u2.Close()
		s2.Close()
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestAutoCheckpoint: append volume past CheckpointEvery triggers a
// background checkpoint that truncates the log.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 15)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: 8}
	u, s, _ := openDurable(t, ds, wopt)
	defer func() { u.Close(); s.Close() }()
	base := snapFiles(t, dir)
	mutate(t, u, 12, 0, 901) // 13 records >= 8
	deadline := time.Now().Add(10 * time.Second)
	for {
		snaps := snapFiles(t, dir)
		if len(snaps) > 0 && snaps[len(snaps)-1] != base[len(base)-1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no auto-checkpoint after %d records (snapshots: %v)", 13, snaps)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchMirrorSurvives: the updater's remembered idempotent-batch
// replies survive both paths — captured by a checkpoint, and replayed from
// the tail.
func TestBatchMirrorSurvives(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 30, 3, 16)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	if err := u.RememberBatch("req-ck", 200, []byte(`{"ids":[1,2]}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(u); err != nil {
		t.Fatal(err)
	}
	if err := u.RememberBatch("req-tail", 400, []byte(`bad request`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.CrashForTest(); err != nil {
		t.Fatal(err)
	}
	u.Close()

	u2, s2, _ := openDurable(t, nil, wopt)
	defer s2.Close()
	defer u2.Close()
	if rep, ok := u2.LookupBatch("req-ck"); !ok || rep.Status != 200 || string(rep.Body) != `{"ids":[1,2]}` {
		t.Fatalf("checkpointed batch reply lost or mangled: %+v", rep)
	}
	if rep, ok := u2.LookupBatch("req-tail"); !ok || rep.Status != 400 || string(rep.Body) != `bad request` {
		t.Fatalf("tail batch reply lost or mangled: %+v", rep)
	}
}

// TestFreshDirLeftoverRecords: records in a directory with no snapshot
// have no base to replay onto; Open must refuse rather than drop them.
func TestFreshDirLeftoverRecords(t *testing.T) {
	dir := t.TempDir()
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	s, rec, err := wal.Open(wopt)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		t.Fatal("fresh dir reported recovered state")
	}
	if err := s.LogInsert(1, 0, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, _, err := wal.Open(wopt); err == nil {
		t.Fatal("orphan records accepted")
	} else if !strings.Contains(err.Error(), "no snapshot exists") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestFreshDirLeftoverEmptySegment: an empty segment — a crash between
// segment creation and the first checkpoint — is swept away silently.
func TestFreshDirLeftoverEmptySegment(t *testing.T) {
	dir := t.TempDir()
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	s, _, err := wal.Open(wopt)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rec, err := wal.Open(wopt)
	if err != nil {
		t.Fatalf("empty leftover segment rejected: %v", err)
	}
	if rec != nil {
		t.Fatal("empty dir reported recovered state")
	}
	s2.Close()
}

// TestHeaderlessTrailingSegment: a crash inside segment creation — after
// the checkpoint picks the next seq but before the header write — leaves
// a zero-length wal file. It can hold no records (headers are fsynced
// before a segment is ever used), so recovery removes it and proceeds.
func TestHeaderlessTrailingSegment(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 18)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	mutate(t, u, 6, 1, 1101)
	want := fingerprint(u.Current())
	u.Close()
	s.Close()

	segs := segFiles(t, dir)
	lastSeq := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(segs[len(segs)-1]), "wal-"), ".log")
	var seq uint64
	fmt.Sscanf(lastSeq, "%016x", &seq)
	residue := filepath.Join(dir, fmt.Sprintf("wal-%016x.log", seq+1))
	if err := os.WriteFile(residue, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	u2, s2, _ := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("recovery with header-less residue diverged:\n got %s\nwant %s", got, want)
	}
	if _, err := os.Stat(residue); !os.IsNotExist(err) {
		t.Fatalf("header-less residue not removed: %v", err)
	}

	// The same residue in a fresh (never-checkpointed) directory is swept
	// too, rather than refused as an undecodable segment.
	fresh := t.TempDir()
	if err := os.WriteFile(filepath.Join(fresh, "wal-0000000000000001.log"), []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, rec, err := wal.Open(wal.Options{Dir: fresh, Fsync: wal.FsyncAlways, CheckpointEvery: -1})
	if err != nil {
		t.Fatalf("fresh open with header-less residue: %v", err)
	}
	if rec != nil {
		t.Fatal("residue reported as recovered state")
	}
	s3.Close()
}

// TestConcurrentCommits hammers the group-commit path from many writers
// (run under -race) and verifies a clean round trip afterwards.
func TestConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 17)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: 16}
	u, s, _ := openDurable(t, ds, wopt)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pts := gen.Synthetic(gen.Independent, 15, 3, int64(1000+w))
			for i := 0; i < pts.N; i++ {
				if _, err := u.Insert(pts.Point(i)); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if i%5 == 4 {
					u.Flush()
				}
			}
		}(w)
	}
	wg.Wait()
	u.Flush()
	want := fingerprint(u.Current())
	u.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	u2, s2, _ := openDurable(t, nil, wopt)
	defer func() { u2.Close(); s2.Close() }()
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("recovered state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestRecoveryIgnoresStaleCompactSignal: a flush during WAL replay whose
// overlay crosses the auto-compaction trigger queues a compaction signal
// before the compactor goroutine starts; when the tail then replays the
// compact record itself, that signal is stale. The compactor must re-check
// the trigger instead of compacting blindly, or recovery would drift one
// epoch past the pre-crash state and a restart would not be byte-identical.
func TestRecoveryIgnoresStaleCompactSignal(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 150, 3, 7)
	dopt := delta.Options{Threads: 2, AutoCompact: true, CompactFraction: 0.05}
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}

	s, rec, err := wal.Open(wopt)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if rec != nil {
		t.Fatal("fresh directory reported recovered state")
	}
	u, err := delta.NewUpdaterFrom(delta.RestoreState{
		Dims: ds.Dims, Epoch: 1, Live: ds.N, Vals: ds.Vals[:ds.N*ds.Dims],
	}, dopt)
	if err != nil {
		t.Fatalf("initial build: %v", err)
	}
	if err := s.Checkpoint(u); err != nil {
		t.Fatalf("initial checkpoint: %v", err)
	}
	u.AttachJournal(s)
	s.AttachUpdater(u)

	// The compactor goroutine stays unstarted so the pre-crash epoch is
	// deterministic: flush past the trigger, then compact explicitly —
	// the durable tail is insert…·flush·compact.
	extra := gen.Synthetic(gen.Independent, 100, 3, 8)
	for i := 0; i < extra.N; i++ {
		if _, err := u.Insert(extra.Point(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	u.Flush()
	u.Compact()
	want := fingerprint(u.Current())
	u.Close()
	if err := s.CrashForTest(); err != nil {
		t.Fatalf("crash: %v", err)
	}

	s2, rec2, err := wal.Open(wopt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec2 == nil {
		t.Fatal("expected recovered state")
	}
	u2, err := delta.NewUpdaterFrom(rec2.State, dopt)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if _, err := s2.Replay(u2); err != nil {
		t.Fatalf("replay: %v", err)
	}
	u2.AttachJournal(s2)
	s2.AttachUpdater(u2)
	u2.StartAutoCompact()
	defer func() { u2.Close(); s2.Close() }()

	// Give a wrongly-woken compactor ample time to do damage, then verify
	// the epoch (part of the fingerprint) did not move past the replayed
	// state.
	time.Sleep(250 * time.Millisecond)
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("post-recovery state drifted:\n got %s\nwant %s", got, want)
	}
}
