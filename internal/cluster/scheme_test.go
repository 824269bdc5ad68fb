package cluster

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"skycube"
)

// fullSpaceFrame returns a shard's raw full-space /shard/cuboid frame.
func fullSpaceFrame(t *testing.T, sh *Shard) []byte {
	t.Helper()
	path := fmt.Sprintf("/shard/cuboid?subspace=%d", 1<<sh.dims-1)
	rec := httptest.NewRecorder()
	sh.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestSealBoundaryCountsCancelledInserts: ids are positional, so an insert
// cancelled before any flush still holds its id. The sealed block starts at
// the id the next insert gets, and a surviving pending insert keeps its
// global id across the seal.
func TestSealBoundaryCountsCancelledInserts(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 100, 3, 82)
	sh, err := NewShard(ds, skycube.Options{Threads: 1}, ShardOptions{IDBase: 1, IDStride: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	up := sh.Updater()
	cancelled, err := up.Insert([]float32{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := up.Insert([]float32{0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Delete(cancelled); err != nil {
		t.Fatal(err)
	}
	before := sh.GlobalID(survivor)

	var resp sealResponse
	mustUnmarshal(t, postJSON(t, sh, "/shard/seal", sealRequest{Base: SplitBlockBase}, http.StatusOK), &resp)
	last := resp.IDSegments[len(resp.IDSegments)-1]
	if want := int32(ds.Len() + 2); last.Start != want {
		t.Fatalf("sealed block starts at local row %d, want %d (Len + 2 pending ids)", last.Start, want)
	}
	if after := sh.GlobalID(survivor); after != before {
		t.Fatalf("pending insert's global id moved across the seal: %d -> %d", before, after)
	}
}

// TestSealedChildRestartsWithItsScheme: a split child joined with zero id
// options takes its parent's scheme from the snapshot stream, and its seal
// is checkpointed. Closed and reopened from its directory alone, again with
// zero id options, it serves the same frames and its next insert mints
// from the sealed block.
func TestSealedChildRestartsWithItsScheme(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 300, 4, 81)
	parent := durableShard(t, ds, t.TempDir(), ShardOptions{IDBase: 1, IDStride: 2})
	psrv := httptest.NewServer(parent)
	defer psrv.Close()

	dir := t.TempDir()
	child := bootstrapChild(t, psrv.URL, dir, ShardOptions{})
	if !bytes.Equal(fullSpaceFrame(t, child), fullSpaceFrame(t, parent)) {
		t.Fatal("joined child's full-space frame differs from its parent's: scheme not carried by the snapshot")
	}
	postJSON(t, child, "/shard/seal", sealRequest{Base: SplitBlockBase}, http.StatusOK)
	// A post-seal row in the full-space skyline: nothing is below 0 on
	// dimension 0, so its sealed-block id shows in the frame.
	postJSON(t, child, "/insert", map[string]any{"points": [][]float32{{0, 0.99, 0.99, 0.99}}}, http.StatusOK)
	postJSON(t, child, "/flush", struct{}{}, http.StatusOK)
	want := fullSpaceFrame(t, child)
	child.Close()

	up, err := skycube.OpenUpdater(skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, Fsync: "never", CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewShardFrom(up, ShardOptions{})
	if err != nil {
		up.Close()
		t.Fatal(err)
	}
	defer re.Close()
	if !bytes.Equal(fullSpaceFrame(t, re), want) {
		t.Fatal("reopened child's full-space frame differs from before the restart")
	}
	local, err := re.Updater().Insert([]float32{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if g := re.GlobalID(local); g < SplitBlockBase {
		t.Fatalf("reopened child's next insert got global id %d, below the sealed block at %d", g, SplitBlockBase)
	}
}

// TestFreshDurableShardCheckpointsOnce: a fresh durable shard's first
// checkpoint carries its id scheme, so its first start writes one
// checkpoint, and a restart from the directory alone, with zero id options,
// maps ids as before.
func TestFreshDurableShardCheckpointsOnce(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 83)
	dir := t.TempDir()
	reg := skycube.NewMetrics()
	sh, err := NewShard(ds, skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, Fsync: "never", CheckpointEvery: -1},
	}, ShardOptions{IDBase: 1, IDStride: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.CounterM("skycube_wal_checkpoints_total", "").Value(); n != 1 {
		t.Fatalf("first start wrote %v checkpoints, want 1", n)
	}
	want := sh.GlobalID(7)
	sh.Close()

	up, err := skycube.OpenUpdater(skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, Fsync: "never", CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewShardFrom(up, ShardOptions{})
	if err != nil {
		up.Close()
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.GlobalID(7); got != want || want != 1+7*3 {
		t.Fatalf("local row 7 maps to %d after the restart, %d before, want %d", got, want, 1+7*3)
	}
}
