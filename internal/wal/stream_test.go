package wal_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"skycube/internal/delta"
	"skycube/internal/gen"
	"skycube/internal/wal"
)

// TestSnapshotWireRoundTrip: EncodeSnapshot → DecodeSnapshot is lossless,
// and a flipped byte anywhere fails verification instead of decoding to a
// plausible-but-wrong state.
func TestSnapshotWireRoundTrip(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 40, 3, 21)
	st := delta.RestoreState{
		Dims: ds.Dims, Epoch: 7, Live: ds.N, Vals: ds.Vals[:ds.N*ds.Dims],
		Replies: []delta.BatchReply{
			{ID: "req-a", Status: 200, Body: []byte(`{"ids":[3]}`)},
			{ID: "req-b", Status: 400, Body: []byte(`bad`)},
		},
	}
	raw, err := wal.EncodeSnapshot(5, st)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ss, err := wal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ss.TailSeq != 5 {
		t.Fatalf("tail seq %d, want 5", ss.TailSeq)
	}
	if ss.State.Epoch != st.Epoch || ss.State.Live != st.Live || ss.State.Dims != st.Dims {
		t.Fatalf("state header mangled: %+v", ss.State)
	}
	if len(ss.State.Vals) != len(st.Vals) {
		t.Fatalf("vals length %d, want %d", len(ss.State.Vals), len(st.Vals))
	}
	for i := range st.Vals {
		if ss.State.Vals[i] != st.Vals[i] {
			t.Fatalf("vals[%d] = %v, want %v", i, ss.State.Vals[i], st.Vals[i])
		}
	}
	if got := ss.State.Replies; len(got) != 2 || got[0].ID != "req-a" || got[1].ID != "req-b" {
		t.Fatalf("batch order mangled: %v", got)
	}
	if rep := ss.State.Replies[0]; rep.Status != 200 || string(rep.Body) != `{"ids":[3]}` {
		t.Fatalf("batch reply mangled: %+v", rep)
	}

	for _, off := range []int{0, len(raw) / 2, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xff
		if _, err := wal.DecodeSnapshot(bad); err == nil {
			t.Fatalf("flipped byte at %d decoded silently", off)
		}
	}
}

// TestSnapshotRefusesOversizedBatchID: a reply whose id does not fit the
// snapshot's 16-bit length field fails the encoding instead of writing a
// wrapped length under a valid CRC.
func TestSnapshotRefusesOversizedBatchID(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 10, 3, 21)
	st := delta.RestoreState{
		Dims: ds.Dims, Live: ds.N, Vals: ds.Vals[:ds.N*ds.Dims],
		Replies: []delta.BatchReply{{ID: strings.Repeat("x", math.MaxUint16+1), Status: 200}},
	}
	if _, err := wal.EncodeSnapshot(1, st); err == nil {
		t.Fatal("a snapshot with a 65 536-byte batch id encoded")
	}
}

// TestGoldenCheckpointOpens: testdata/golden-checkpoint is a data directory
// written when a node's batch replies still lived in the store: a
// checkpoint holding two pending inserts (one cancelled), a pending delete
// and replies golden-a..c, and a log tail with one more insert and reply
// golden-d. It recovers with every reply in its original order, and its
// snapshot re-encodes to the same bytes.
func TestGoldenCheckpointOpens(t *testing.T) {
	src := filepath.Join("testdata", "golden-checkpoint")
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(e.Name(), ".ck") {
			raw = b
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := wal.DecodeSnapshot(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again, err := wal.EncodeSnapshot(ss.TailSeq, ss.State)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(again, raw) {
		t.Fatal("the golden snapshot does not re-encode byte-identically")
	}

	u, s, replayed := openDurable(t, nil, wal.Options{Dir: dir, CheckpointEvery: -1})
	defer s.Close()
	defer u.Close()
	if replayed != 2 {
		t.Fatalf("replayed %d tail records, want 2", replayed)
	}
	if ins, del := u.Pending(); ins != 2 || del != 1 {
		t.Fatalf("pending %d inserts, %d deletes; want 2 and 1", ins, del)
	}
	st, err := u.CaptureState(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		id     string
		status int
	}{{"golden-a", 200}, {"golden-b", 400}, {"golden-c", 200}, {"golden-d", 200}}
	if len(st.Replies) != len(want) {
		t.Fatalf("recovered %d replies, want %d", len(st.Replies), len(want))
	}
	for i, w := range want {
		if got := st.Replies[i]; got.ID != w.id || got.Status != w.status {
			t.Fatalf("reply %d is %s/%d, want %s/%d", i, got.ID, got.Status, w.id, w.status)
		}
	}
}

// TestRecordsWireRoundTrip: EncodeRecords → DecodeRecords preserves every
// record kind the tail feed carries, and a torn frame is an error (HTTP
// delivers whole bodies; there is no torn tail to repair on the wire).
func TestRecordsWireRoundTrip(t *testing.T) {
	recs := []wal.Record{
		{Type: 1, ID: 9, Epoch: 2, Point: []float32{1, 2, 3}},                 // insert
		{Type: 2, ID: 4, Epoch: 2},                                            // delete
		{Type: 3, Epoch: 3, Live: 41},                                         // flush
		{Type: 4, Epoch: 4, Live: 40},                                         // compact
		{Type: 5, BatchID: "req-x", Status: 200, Body: []byte(`{"ids":[1]}`)}, // batch reply
	}
	raw, err := wal.EncodeRecords(recs)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := wal.DecodeRecords(raw)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		w := recs[i]
		if r.Type != w.Type || r.ID != w.ID || r.Epoch != w.Epoch ||
			r.Live != w.Live || r.BatchID != w.BatchID || r.Status != w.Status {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
	}
	if empty, err := wal.DecodeRecords(nil); err != nil || len(empty) != 0 {
		t.Fatalf("empty body: %v records, err %v", empty, err)
	}
	if _, err := wal.DecodeRecords(raw[:len(raw)-3]); err == nil {
		t.Fatal("torn frame decoded silently")
	}
}

// TestBootstrapEquivalence is the state-transfer contract behind a live
// join: StreamSnapshot + TailChain from a mutated source, WriteBootstrap
// into a fresh directory, and the ordinary recovery path boots a node whose
// every subspace skyline matches the source exactly.
func TestBootstrapEquivalence(t *testing.T) {
	srcDir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 60, 3, 22)
	wopt := wal.Options{Dir: srcDir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	defer func() { u.Close(); s.Close() }()
	mutate(t, u, 12, 3, 2201)
	mutate(t, u, 8, 2, 2202)
	want := fingerprint(u.Current())

	raw, seq, err := s.StreamSnapshot()
	if err != nil {
		t.Fatalf("stream snapshot: %v", err)
	}
	tail, total, err := s.TailChain(seq, 0)
	if err != nil {
		t.Fatalf("tail chain: %v", err)
	}
	if total != len(tail) {
		t.Fatalf("skip-0 chain total %d but %d records", total, len(tail))
	}
	if len(tail) == 0 {
		t.Fatal("expected a non-empty tail after mutations")
	}

	dstDir := t.TempDir()
	if err := wal.WriteBootstrap(dstDir, raw, tail); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	// A second bootstrap into the now-populated directory must refuse.
	if err := wal.WriteBootstrap(dstDir, raw, tail); err == nil {
		t.Fatal("bootstrap into a populated directory accepted")
	}
	u2, s2, replayed := openDurable(t, nil, wal.Options{Dir: dstDir, Fsync: wal.FsyncAlways, CheckpointEvery: -1})
	defer func() { u2.Close(); s2.Close() }()
	if replayed != len(tail) {
		t.Fatalf("replayed %d records, want %d", replayed, len(tail))
	}
	if got := fingerprint(u2.Current()); got != want {
		t.Fatalf("bootstrapped state diverged:\n got %s\nwant %s", got, want)
	}

	// WipeForRejoin resets the directory for a fresh transfer.
	u2.Close()
	s2.Close()
	if err := wal.WipeForRejoin(dstDir); err != nil {
		t.Fatalf("wipe: %v", err)
	}
	if err := wal.WriteBootstrap(dstDir, raw, tail); err != nil {
		t.Fatalf("re-bootstrap after wipe: %v", err)
	}
	u3, s3, _ := openDurable(t, nil, wal.Options{Dir: dstDir, Fsync: wal.FsyncAlways, CheckpointEvery: -1})
	defer func() { u3.Close(); s3.Close() }()
	if got := fingerprint(u3.Current()); got != want {
		t.Fatalf("re-bootstrapped state diverged:\n got %s\nwant %s", got, want)
	}
}

// TestTailChainCursor: the (from, skip) pair is a resumable cursor — each
// call with the previous total as skip yields exactly the records appended
// in between, never a duplicate; and a checkpoint that truncates segment
// `from` turns the cursor into ErrTailTruncated, the restart-from-snapshot
// signal.
func TestTailChainCursor(t *testing.T) {
	dir := t.TempDir()
	ds := gen.Synthetic(gen.Independent, 40, 3, 23)
	wopt := wal.Options{Dir: dir, Fsync: wal.FsyncAlways, CheckpointEvery: -1}
	u, s, _ := openDurable(t, ds, wopt)
	defer func() { u.Close(); s.Close() }()

	_, seq, err := s.StreamSnapshot()
	if err != nil {
		t.Fatalf("stream snapshot: %v", err)
	}
	mutate(t, u, 5, 1, 2301)
	first, total1, err := s.TailChain(seq, 0)
	if err != nil {
		t.Fatalf("first pull: %v", err)
	}
	if len(first) != total1 || total1 == 0 {
		t.Fatalf("first pull: %d records, total %d", len(first), total1)
	}
	mutate(t, u, 4, 0, 2302)
	second, total2, err := s.TailChain(seq, total1)
	if err != nil {
		t.Fatalf("second pull: %v", err)
	}
	if total2 != total1+len(second) || len(second) == 0 {
		t.Fatalf("second pull: %d records, totals %d -> %d", len(second), total1, total2)
	}
	// A caught-up cursor pulls nothing.
	none, total3, err := s.TailChain(seq, total2)
	if err != nil || len(none) != 0 || total3 != total2 {
		t.Fatalf("caught-up pull: %d records, total %d, err %v", len(none), total3, err)
	}
	// A skip beyond the chain is a hard error, not silence.
	if _, _, err := s.TailChain(seq, total2+10); err == nil {
		t.Fatal("over-long skip accepted")
	}
	// from=0 and from beyond the active segment are malformed cursors.
	if _, _, err := s.TailChain(0, 0); err == nil {
		t.Fatal("from=0 accepted")
	}
	if _, _, err := s.TailChain(s.Seq()+1, 0); err == nil {
		t.Fatal("future segment accepted")
	}

	// A checkpoint truncates the chain the cursor names.
	if err := s.Checkpoint(u); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, _, err := s.TailChain(seq, total2); !errors.Is(err, wal.ErrTailTruncated) {
		t.Fatalf("stale cursor after checkpoint: err %v, want ErrTailTruncated", err)
	}
	// The refreshed snapshot names a live segment again.
	_, seq2, err := s.StreamSnapshot()
	if err != nil {
		t.Fatalf("refreshed snapshot: %v", err)
	}
	if rest, _, err := s.TailChain(seq2, 0); err != nil || len(rest) != 0 {
		t.Fatalf("fresh cursor: %d records, err %v", len(rest), err)
	}
}

// TestBootstrapRejectsGarbage: WriteBootstrap verifies the snapshot bytes
// before touching the directory.
func TestBootstrapRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	err := wal.WriteBootstrap(dir, []byte("not a snapshot"), nil)
	if err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if segs, snaps := segFiles(t, dir), snapFiles(t, dir); len(segs) != 0 || len(snaps) != 0 {
		t.Fatalf("garbage bootstrap left files: %v %v", segs, snaps)
	}
	if !strings.Contains(err.Error(), "bootstrap snapshot") {
		t.Fatalf("unexpected error: %v", err)
	}
	// Sanity: WipeForRejoin on a directory that never existed is a no-op.
	if err := wal.WipeForRejoin(dir + "/nope"); err != nil {
		t.Fatalf("wipe of missing dir: %v", err)
	}
}
