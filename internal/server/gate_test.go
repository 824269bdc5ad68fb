package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"skycube"
	"skycube/internal/delta"
)

func TestStartupGateBlocksUntilOpen(t *testing.T) {
	g := NewStartupGate()
	if g.Ready() {
		t.Fatal("gate ready before Open")
	}
	req := httptest.NewRequest(http.MethodGet, "/skyline?dims=0", nil)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("gated request: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("gated request: Retry-After %q, want 1", rec.Header().Get("Retry-After"))
	}
	var body struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "recovering" || body.Ready {
		t.Fatalf("gated body = %+v", body)
	}

	s, _, _ := newTestServer(t, 0)
	g.Open(s)
	if !g.Ready() {
		t.Fatal("gate not ready after Open")
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("opened gate /healthz: status %d, want 200", rec.Code)
	}
}

// newDurableServer is newUpdaterServer over a data directory, so closing
// the updater and rebuilding from dir exercises the serving layer's
// recovery wiring (WAL commit on ack, batch replies restored with the
// updater).
func newDurableServer(t *testing.T, dir string) (*Server, *skycube.Updater) {
	t.Helper()
	ds, err := skycube.DatasetFromRows([][]float32{
		{12.20, 17, 120},
		{9.00, 12, 148},
		{8.20, 13, 169},
		{21.25, 3, 186},
		{21.25, 5, 196},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := skycube.NewMetrics()
	up, err := skycube.NewUpdater(ds, skycube.Options{
		Threads: 2, Metrics: reg,
		Durable: skycube.DurableOptions{Dir: dir, CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewWith(nil, nil, Options{Updater: up, Metrics: reg}), up
}

// TestDurableFlushAckPaysOneFsync: the updater commits an epoch marker
// itself while it computes the epoch, so with no other writer an
// acknowledged /flush or /compact moves skycube_wal_fsyncs_total by exactly
// one; the ack reads the log's sticky error instead of committing again.
func TestDurableFlushAckPaysOneFsync(t *testing.T) {
	s, up := newDurableServer(t, t.TempDir())
	defer up.Close()
	fsyncs := func() float64 { return s.opt.Metrics.CounterM("skycube_wal_fsyncs_total", "").Value() }

	if rec := post(t, s, "/insert", `{"points":[[1,2,3]]}`); rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := post(t, s, "/delete", `{"ids":[2]}`); rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body.String())
	}
	for _, path := range []string{"/flush", "/compact"} {
		before := fsyncs()
		if rec := post(t, s, path, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		if got := fsyncs() - before; got != 1 {
			t.Fatalf("%s paid %v fsyncs, want 1", path, got)
		}
	}
	if got := up.Current(); got.Epoch() != 3 || got.Live() != 5 {
		t.Fatalf("epoch %d with %d live, want 3 with 5", got.Epoch(), got.Live())
	}
}

// TestDurableBatchDedupAcrossRestart: an acknowledged idempotent batch
// insert must replay — same status, same body, no re-apply — when the
// client retries it against a server rebuilt from the data directory.
func TestDurableBatchDedupAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, up := newDurableServer(t, dir)

	const batch = `{"points":[[1.5,2.5,3.5],[4.5,5.5,6.5]],"batch":"retry-me"}`
	rec := post(t, s, "/insert", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", rec.Code, rec.Body.String())
	}
	firstBody := rec.Body.String()
	if rec := post(t, s, "/flush", ""); rec.Code != http.StatusOK {
		t.Fatalf("flush: status %d: %s", rec.Code, rec.Body.String())
	}
	wantLive := up.Current().Live()
	wantSky := up.Current().Skyline(skycube.FullSpace(3))
	up.Close()

	s2, up2 := newDurableServer(t, dir)
	defer up2.Close()
	if up2.Current().Live() != wantLive {
		t.Fatalf("recovered live = %d, want %d", up2.Current().Live(), wantLive)
	}
	if got := up2.Current().Skyline(skycube.FullSpace(3)); !reflect.DeepEqual(got, wantSky) {
		t.Fatalf("recovered skyline %v, want %v", got, wantSky)
	}

	// The retry must replay the original ack byte for byte and must not
	// insert the points again.
	rec = post(t, s2, "/insert", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("replayed insert: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Body.String() != firstBody {
		t.Fatalf("replayed body %q, want %q", rec.Body.String(), firstBody)
	}
	if ins, _ := up2.Pending(); ins != 0 {
		t.Fatalf("retried batch re-buffered %d inserts", ins)
	}
	if rec := post(t, s2, "/flush", ""); rec.Code != http.StatusOK {
		t.Fatal("flush after replay failed")
	}
	if up2.Current().Live() != wantLive {
		t.Fatalf("retry double-applied: live = %d, want %d", up2.Current().Live(), wantLive)
	}
}

// TestDurableBatchDedupEvictsOldestAfterRestart: a restarted node holds its
// remembered batch replies in their original order — half restored from the
// checkpoint, half replayed from the log — so the first new batch past the
// 4096 cap evicts the oldest reply and only that one.
func TestDurableBatchDedupEvictsOldestAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s, up := newDurableServer(t, dir)
	const n = 4096
	batch := func(i int) string { return fmt.Sprintf(`{"points":[[%d.5,2,3]],"batch":"b%d"}`, i, i) }
	insert := func(s *Server, i int) {
		t.Helper()
		if rec := post(t, s, "/insert", batch(i)); rec.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	for i := 0; i < n; i++ {
		if i == n/2 {
			if err := up.Store().Checkpoint(up.Delta()); err != nil {
				t.Fatal(err)
			}
		}
		insert(s, i)
	}
	up.Close()

	s2, up2 := newDurableServer(t, dir)
	defer up2.Close()
	insert(s2, n)
	before, _ := up2.Pending()
	for i := 1; i <= n; i++ {
		insert(s2, i)
	}
	if after, _ := up2.Pending(); after != before {
		t.Fatalf("%d remembered batches were applied again", after-before)
	}
	insert(s2, 0)
	if after, _ := up2.Pending(); after != before+1 {
		t.Fatalf("the oldest batch was not evicted: pending %d, want %d", after, before+1)
	}
}

// TestDurableRefusesOversizedBatchID: a batch id the journal cannot hold is
// refused before anything is buffered or remembered, and the longest id it
// can hold survives a checkpoint and a restart.
func TestDurableRefusesOversizedBatchID(t *testing.T) {
	dir := t.TempDir()
	s, up := newDurableServer(t, dir)
	insert := func(s *Server, id string) *httptest.ResponseRecorder {
		return post(t, s, "/insert", fmt.Sprintf(`{"points":[[1.5,2.5,3.5]],"batch":%q}`, id))
	}
	long, longest := strings.Repeat("x", delta.MaxBatchID+1), strings.Repeat("y", delta.MaxBatchID)
	if rec := insert(s, long); rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch id: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if ins, _ := up.Pending(); ins != 0 {
		t.Fatalf("oversized batch id buffered %d inserts", ins)
	}
	rec := insert(s, longest)
	if rec.Code != http.StatusOK {
		t.Fatalf("longest batch id: status %d: %s", rec.Code, rec.Body.String())
	}
	first := rec.Body.String()
	if err := up.Store().Checkpoint(up.Delta()); err != nil {
		t.Fatal(err)
	}
	up.Close()

	s2, up2 := newDurableServer(t, dir)
	defer up2.Close()
	if rec := insert(s2, longest); rec.Code != http.StatusOK || rec.Body.String() != first {
		t.Fatalf("replayed longest batch id: status %d, body %q, want %q", rec.Code, rec.Body.String(), first)
	}
	if ins, _ := up2.Pending(); ins != 1 {
		t.Fatalf("pending inserts after restart and replay = %d, want 1", ins)
	}
}
