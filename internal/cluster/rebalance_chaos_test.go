// Rebalance chaos tests: membership must change — joins, splits, restarts —
// while the cluster serves mixed traffic, with zero wrong answers. The map
// generation protocol, the snapshot-streamed bootstrap and the write-quiesced
// cutover are each driven through their failure windows here.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skycube"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/rebalance"
	"skycube/internal/server"
)

// durableShard builds a shard whose updater journals to dir. Auto-checkpoint
// stays off so tail-chain cursors are stable unless a test checkpoints
// explicitly.
func durableShard(t *testing.T, ds *skycube.Dataset, dir string, sopt ShardOptions) *Shard {
	t.Helper()
	sh, err := NewShard(ds, skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, Fsync: "never", CheckpointEvery: -1},
	}, sopt)
	if err != nil {
		t.Fatalf("durable shard: %v", err)
	}
	t.Cleanup(sh.Close)
	return sh
}

// bootstrapChild joins a fresh replica from peer's snapshot stream and wraps
// it as a serving shard with the source still attached (so /shard/sync can
// pull the remaining tail). Closing the shard closes the node's store too.
func bootstrapChild(t *testing.T, peer, dir string, sopt ShardOptions) *Shard {
	t.Helper()
	node, err := rebalance.Bootstrap(context.Background(), peer, skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dir, Fsync: "never", CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatalf("bootstrap from %s: %v", peer, err)
	}
	return shardFromNode(t, node, sopt)
}

// shardFromNode serves a bootstrapped node as a shard with its source
// attached.
func shardFromNode(t *testing.T, node *rebalance.Node, sopt ShardOptions) *Shard {
	t.Helper()
	sopt.Source = node
	sh, err := NewShardFrom(node.Updater, sopt)
	if err != nil {
		t.Fatalf("shard from bootstrap: %v", err)
	}
	t.Cleanup(sh.Close)
	return sh
}

// mutateShard applies k inserts and del deletes directly to the shard's
// journaled updater and flushes.
func mutateShard(t *testing.T, sh *Shard, k, del int, seed int64) {
	t.Helper()
	up := sh.Updater()
	extra := skycube.GenerateSynthetic(skycube.Independent, k, up.Current().Dims(), seed)
	for i := 0; i < extra.Len(); i++ {
		if _, err := up.Insert(extra.Point(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	snap := up.Current()
	for id := int32(0); id < int32(snap.Len()) && del > 0; id++ {
		if snap.Alive(id) {
			if err := up.Delete(id); err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			del--
		}
	}
	up.Flush()
}

// assertShardsEqual compares two shards' frontier and every subspace skyline.
func assertShardsEqual(t *testing.T, a, b *Shard, stage string) {
	t.Helper()
	sa, sb := a.Updater().Current(), b.Updater().Current()
	if sa.Epoch() != sb.Epoch() || sa.Live() != sb.Live() {
		t.Fatalf("%s: frontiers differ: epoch %d/%d, live %d/%d",
			stage, sa.Epoch(), sb.Epoch(), sa.Live(), sb.Live())
	}
	for d := mask.Mask(1); d < 1<<uint(sa.Dims()); d++ {
		if !equalIDs(sa.Skyline(d), sb.Skyline(d)) {
			t.Fatalf("%s: subspace %d skylines differ: %v vs %v",
				stage, d, sa.Skyline(d), sb.Skyline(d))
		}
	}
}

// postRaw issues one request against a handler and returns the recorder.
func postRaw(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestShardSnapshotTailJoin drives the state-transfer protocol shard to
// shard: bootstrap a replica over HTTP from a mutated source, converge it via
// /shard/sync, and verify a source checkpoint turns a stale sync cursor into
// the explicit restart-from-snapshot signal rather than silence.
func TestShardSnapshotTailJoin(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 120, 3, 71)
	parent := durableShard(t, ds, t.TempDir(), ShardOptions{IDBase: 0, IDStride: 1})
	psrv := httptest.NewServer(parent)
	defer psrv.Close()
	mutateShard(t, parent, 10, 3, 711)

	child := bootstrapChild(t, psrv.URL, t.TempDir(), ShardOptions{IDBase: 0, IDStride: 1})
	assertShardsEqual(t, parent, child, "after join")

	// Writes the child missed: /shard/sync pulls the remaining tail and the
	// frontiers re-agree exactly.
	mutateShard(t, parent, 6, 2, 712)
	var sr syncResponse
	mustUnmarshal(t, postJSON(t, child, "/shard/sync", struct{}{}, http.StatusOK), &sr)
	if sr.Applied == 0 {
		t.Fatal("sync applied no records despite missed writes")
	}
	if want := parent.Updater().Current().Epoch(); sr.Epoch != want {
		t.Fatalf("sync epoch %d, parent epoch %d", sr.Epoch, want)
	}
	assertShardsEqual(t, parent, child, "after sync")

	// A parent checkpoint truncates the segments the child's cursor names:
	// the next sync must surface the truncation (410 from the source's tail
	// endpoint, 502 from the child's sync), never skip records silently.
	mutateShard(t, parent, 3, 0, 713)
	if err := parent.Updater().Store().Checkpoint(parent.Updater().Delta()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rec := postRaw(child, "/shard/sync", nil)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("sync against a truncated tail: status %d, body %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "truncated") {
		t.Fatalf("sync error %q does not carry the truncation signal", rec.Body.String())
	}
}

// TestShardSyncCarriesBatchReplies: a batch reply the source remembered
// reaches a serving replica through POST /shard/sync, so the batch retried
// against the replica replays with the same ids and adds no point.
func TestShardSyncCarriesBatchReplies(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 60, 3, 81)
	parent := durableShard(t, ds, t.TempDir(), ShardOptions{IDBase: 0, IDStride: 1})
	psrv := httptest.NewServer(parent)
	defer psrv.Close()
	child := bootstrapChild(t, psrv.URL, t.TempDir(), ShardOptions{IDBase: 0, IDStride: 1})

	batch := []byte(`{"points":[[0.5,0.25,0.75]],"batch":"sync-me"}`)
	first := postRaw(parent, "/insert", batch)
	if first.Code != http.StatusOK {
		t.Fatalf("insert on the source: status %d: %s", first.Code, first.Body.String())
	}
	var sr syncResponse
	mustUnmarshal(t, postJSON(t, child, "/shard/sync", struct{}{}, http.StatusOK), &sr)
	if sr.Applied == 0 {
		t.Fatal("sync applied no records")
	}
	before, _ := child.Updater().Pending()
	retry := postRaw(child, "/insert", batch)
	if retry.Code != http.StatusOK || retry.Body.String() != first.Body.String() {
		t.Fatalf("retry on the replica: status %d, body %q, want 200 %q",
			retry.Code, retry.Body.String(), first.Body.String())
	}
	if after, _ := child.Updater().Pending(); after != before {
		t.Fatalf("retried batch applied again on the replica: pending %d -> %d", before, after)
	}
	if live := child.Updater().Flush().Live(); live != ds.Len()+1 {
		t.Fatalf("replica live %d after flush, want %d", live, ds.Len()+1)
	}
}

// TestJoinCompactsOnlyOnceDetached: a joiner asked for background
// compaction keeps its compactor off for as long as its source can feed it
// — so when the parent compacts mid catch-up, replaying that compaction
// still lands on the parent's epoch — and compacts on its own once the
// split's seal detaches it.
func TestJoinCompactsOnlyOnceDetached(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 77)
	parent := durableShard(t, ds, t.TempDir(), ShardOptions{IDBase: 0, IDStride: 1})
	psrv := httptest.NewServer(parent)
	defer psrv.Close()
	ctx := context.Background()
	node, err := rebalance.Bootstrap(ctx, psrv.URL, skycube.Options{
		Threads: 2,
		Delta:   skycube.DeltaOptions{AutoCompact: true, CompactFraction: 0.05},
		Durable: skycube.DurableOptions{Dir: t.TempDir(), Fsync: "never", CheckpointEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	child := shardFromNode(t, node, ShardOptions{IDBase: 0, IDStride: 1})

	// The replayed flush grows the joiner's overlay far past its trigger.
	mutateShard(t, parent, 100, 0, 771)
	if _, err := node.CatchUp(ctx); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // room for a wrongly started compactor
	if c := node.Updater.Stats().Compactions; c != 0 {
		t.Fatalf("joiner compacted %d times while attached to its source", c)
	}
	parent.Updater().Compact()
	if _, err := node.CatchUp(ctx); err != nil {
		t.Fatalf("catch-up over the parent's compaction: %v", err)
	}
	if pe, ce := parent.Updater().Current().Epoch(), node.Updater.Current().Epoch(); pe != ce {
		t.Fatalf("joiner at epoch %d after catch-up, parent at %d", ce, pe)
	}
	assertShardsEqual(t, parent, child, "after catch-up")

	// Cutover: the seal detaches the source, and the child's own writes
	// now trigger its compactor.
	postJSON(t, child, "/shard/seal", sealRequest{Base: SplitBlockBase}, http.StatusOK)
	compacted := node.Updater.Stats().Compactions
	mutateShard(t, child, 100, 0, 772)
	for deadline := time.Now().Add(10 * time.Second); node.Updater.Stats().Compactions == compacted; {
		if time.Now().After(deadline) {
			t.Fatal("sealed child never compacted: its compactor was not started")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosLiveSplitUnderLoad is the elastic-membership acceptance wall: a
// durable K=2 cluster serves continuous mixed traffic while a third shard is
// bootstrapped from a live peer's snapshot stream and cut into the ring.
// Every read during the split must be a committed 200 whose epoch vector
// names a complete topology (never a mix of old and new maps); afterwards
// every subspace must match a brute-force oracle fed exactly the cluster's
// own accepted writes; and a subsequently killed replica degrades to explicit
// 206 partials, never silent wrong answers.
func TestChaosLiveSplitUnderLoad(t *testing.T) {
	const k = 2
	ds := skycube.GenerateSynthetic(skycube.Independent, 240, 3, 73)
	parts, err := ds.Partition(k, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var specs []ShardSpec
	var parentURLs []string
	for s, part := range parts {
		sh := durableShard(t, part, t.TempDir(), ShardOptions{IDBase: s, IDStride: k})
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		parentURLs = append(parentURLs, srv.URL)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: k})
	}
	coord, err := NewCoordinator(specs, CoordinatorOptions{
		Timeout: 5 * time.Second,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuneClient(coord, defaultHedgeDelay)

	// The oracle: every id the cluster has accepted, with its point. The
	// cluster's answers must equal this map's brute-force skyline regardless
	// of how the topology changed underneath. Round-robin global ids
	// reproduce the original row index, so the seed rows prime it directly.
	var oracleMu sync.Mutex
	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}

	// Continuous readers, running through every phase up to the kill window:
	// every response must be a complete 200 whose epoch keys name a full
	// topology — {"0","1"} before the cutover, {"0","1","2"} after — and
	// never a mix.
	stop := make(chan struct{})
	readerErrs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					readerErrs <- nil
					return
				default:
				}
				sub := mask.Mask(1 + (w+i)%7)
				status, got, err := rawQuerySkyline(coord, sub)
				if err != nil {
					readerErrs <- fmt.Errorf("reader %d: subspace %d: %v", w, sub, err)
					return
				}
				if status != http.StatusOK || got.Partial {
					readerErrs <- fmt.Errorf("reader %d: subspace %d: status %d partial=%v during rebalance",
						w, sub, status, got.Partial)
					return
				}
				_, has0 := got.Epochs["0"]
				_, has1 := got.Epochs["1"]
				_, has2 := got.Epochs["2"]
				oldMap := len(got.Epochs) == k && has0 && has1
				newMap := len(got.Epochs) == k+1 && has0 && has1 && has2
				if !oldMap && !newMap {
					readerErrs <- fmt.Errorf("reader %d: subspace %d: mixed/incomplete epoch vector %v",
						w, sub, got.Epochs)
					return
				}
			}
		}(w)
	}

	// Phase A, healthy writes: inserts and deletes through the coordinator,
	// mirrored into the oracle.
	ins := skycube.GenerateSynthetic(skycube.Anticorrelated, 30, 3, 731)
	var batch [][]float32
	for i := 0; i < ins.Len(); i++ {
		batch = append(batch, ins.Point(i))
	}
	var iresp insertResponse
	mustUnmarshal(t, postJSON(t, coord, "/insert", insertRequest{Points: batch}, http.StatusOK), &iresp)
	oracleMu.Lock()
	for i, id := range iresp.IDs {
		points[id] = batch[i]
	}
	oracleMu.Unlock()
	del := []int32{2, 7, 19, 44}
	postJSON(t, coord, "/delete", deleteRequest{IDs: del}, http.StatusOK)
	oracleMu.Lock()
	for _, id := range del {
		delete(points, id)
	}
	oracleMu.Unlock()
	postJSON(t, coord, "/flush", struct{}{}, http.StatusOK)

	// Phase B, the live split: writes keep flowing from a background writer
	// (no deletes in the split window — deletes pause around membership
	// changes so the oracle's view of claimants stays unambiguous) while the
	// child bootstraps from shard 0's snapshot stream and the cutover runs.
	writerDone := make(chan error, 1)
	writerStop := make(chan struct{})
	go func() {
		wpts := skycube.GenerateSynthetic(skycube.Correlated, 200, 3, 733)
		for i := 0; ; i++ {
			select {
			case <-writerStop:
				writerDone <- nil
				return
			default:
			}
			p := wpts.Point(i % wpts.Len())
			b, _ := json.Marshal(insertRequest{Points: [][]float32{p}})
			rec := postRaw(coord, "/insert", b)
			if rec.Code != http.StatusOK {
				writerDone <- fmt.Errorf("writer insert %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			var wresp insertResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &wresp); err != nil || len(wresp.IDs) != 1 {
				writerDone <- fmt.Errorf("writer insert %d: ids %v, err %v", i, wresp.IDs, err)
				return
			}
			oracleMu.Lock()
			points[wresp.IDs[0]] = p
			oracleMu.Unlock()
		}
	}()

	child := bootstrapChild(t, parentURLs[0], t.TempDir(), ShardOptions{IDBase: 0, IDStride: k})
	childFault := &faultyHandler{inner: child}
	csrv := httptest.NewServer(childFault)
	t.Cleanup(csrv.Close)

	var split adminSplitResponse
	mustUnmarshal(t, postJSON(t, coord, "/admin/split", adminSplitRequest{
		Shard: "0", Child: "2", Replicas: []string{csrv.URL},
	}, http.StatusOK), &split)
	if len(split.PruneErrors) != 0 {
		t.Fatalf("split prune errors: %v", split.PruneErrors)
	}
	if split.Gen < 2 || split.Child != "2" || len(split.IDSegments) != 2 {
		t.Fatalf("split response: %+v", split)
	}
	close(writerStop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}

	// Phase C, post-split: more inserts must route across all three shards,
	// and the child's must mint from its sealed id block.
	post := skycube.GenerateSynthetic(skycube.Independent, 120, 3, 737)
	batch = batch[:0]
	for i := 0; i < post.Len(); i++ {
		batch = append(batch, post.Point(i))
	}
	mustUnmarshal(t, postJSON(t, coord, "/insert", insertRequest{Points: batch}, http.StatusOK), &iresp)
	var sawSealed bool
	oracleMu.Lock()
	for i, id := range iresp.IDs {
		points[id] = batch[i]
		if id >= SplitBlockBase {
			sawSealed = true
		}
	}
	oracleMu.Unlock()
	if !sawSealed {
		t.Fatalf("no post-split insert minted from the sealed block; ids %v", iresp.IDs)
	}
	if iresp.Routed["2"] == 0 {
		t.Fatalf("no post-split insert routed to the child: %v", iresp.Routed)
	}
	// Post-split deletes: even ids sit in the copied region both the parent's
	// open arithmetic and the child's first segment claim, so these exercise
	// the claimant-broadcast path; 9 stays single-claimant on shard 1.
	del = []int32{4, 10, 9}
	postJSON(t, coord, "/delete", deleteRequest{IDs: del}, http.StatusOK)
	oracleMu.Lock()
	for _, id := range del {
		delete(points, id)
	}
	oracleMu.Unlock()
	postJSON(t, coord, "/flush", struct{}{}, http.StatusOK)

	// Quiesce the readers, then the oracle comparison: every subspace, exact.
	close(stop)
	wg.Wait()
	for i := 0; i < 4; i++ {
		if err := <-readerErrs; err != nil {
			t.Fatal(err)
		}
	}
	oracleMu.Lock()
	defer oracleMu.Unlock()
	for sub := mask.Mask(1); sub < 1<<3; sub++ {
		got := querySkyline(t, coord, sub, http.StatusOK)
		if got.Partial {
			t.Fatalf("subspace %d partial on a healthy post-split cluster", sub)
		}
		if want := bruteSkyline(points, sub); !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d after live split: ids %v, want %v", sub, got.IDs, want)
		}
	}

	// The map must have swapped and the admin surface must show the sealed
	// child scheme.
	req := httptest.NewRequest(http.MethodGet, "/admin/map", nil)
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, req)
	var am adminMapResponse
	mustUnmarshal(t, rec.Body.Bytes(), &am)
	if len(am.Shards) != 3 || am.Gen != split.Gen {
		t.Fatalf("admin map after split: %+v", am)
	}
	if swaps := metricTotal(t, reg, "skycube_rebalance_map_swaps_total"); swaps == 0 {
		t.Fatal("no map swap counted")
	}

	// Phase D, injected replica kill: the child dies; its shard has R=1, so
	// reads must degrade to the explicit 206 partial contract — the ONLY
	// acceptable non-200 — and recover to exact 200s once revived. Before the
	// kill, a delete of a member of the read subspace routed to shard 1 (an
	// odd id below the split block: single claimant, child untouched) and a
	// flush roll that subspace, so the read below fans out instead of
	// replaying the memoized pre-kill answer.
	sub, victim := mask.Mask(0), int32(-1)
	for _, try := range []mask.Mask{3, 1, 2, 4, 5, 6, 7} {
		for _, id := range bruteSkyline(points, try) {
			if id%2 == 1 && id < SplitBlockBase {
				sub, victim = try, id
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no subspace has a member on shard 1 to delete")
	}
	postJSON(t, coord, "/delete", deleteRequest{IDs: []int32{victim}}, http.StatusOK)
	delete(points, victim)
	postJSON(t, coord, "/flush", struct{}{}, http.StatusOK)
	childFault.dead.Store(true)
	got := querySkyline(t, coord, sub, http.StatusPartialContent)
	if !got.Partial || len(got.FailedShards) != 1 || got.FailedShards[0] != "2" {
		t.Fatalf("kill window: partial=%v failed=%v, want explicit child failure", got.Partial, got.FailedShards)
	}
	childFault.dead.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, got, err := rawQuerySkyline(coord, sub)
		if err == nil && status == http.StatusOK && !got.Partial {
			if want := bruteSkyline(points, sub); !equalIDs(got.IDs, want) {
				t.Fatalf("post-revival subspace %d: ids %v, want %v", sub, got.IDs, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never recovered: status %d, err %v", status, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosRestartedReplicaCatchesUpBeforeReady: a replica is killed, misses
// writes (latching the group's diverged flag), and restarts behind its peer.
// Anti-entropy must detect the stale recovery, wipe, re-bootstrap from the
// peer BEFORE the startup gate opens — and once the replica serves again, a
// coordinator refresh must verify the replicas re-agree and clear the
// diverged latch.
func TestChaosRestartedReplicaCatchesUpBeforeReady(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 150, 3, 79)
	dirA, dirB := t.TempDir(), t.TempDir()
	repA := durableShard(t, ds, dirA, ShardOptions{IDBase: 0, IDStride: 1})
	srvA := httptest.NewServer(repA)
	defer srvA.Close()

	// Replica B starts as an independent durable build of the same partition
	// behind a swappable handler, so its URL survives the "process restart".
	// Built inline (not durableShard) because the test closes it mid-flight.
	repB, err := NewShard(ds, skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dirB, Fsync: "never", CheckpointEvery: -1},
	}, ShardOptions{IDBase: 0, IDStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	var curB atomic.Pointer[http.Handler]
	var hB http.Handler = repB
	curB.Store(&hB)
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*curB.Load()).ServeHTTP(w, r)
	}))
	defer srvB.Close()

	coord, err := NewCoordinator([]ShardSpec{
		{Replicas: []string{srvA.URL, srvB.URL}, IDBase: 0, IDStride: 1},
	}, CoordinatorOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tuneClient(coord, 0)
	points := map[int32][]float32{}
	for i := 0; i < ds.Len(); i++ {
		points[int32(i)] = ds.Point(i)
	}
	ins := [][]float32{{0.05, 0.9, 0.3}, {0.9, 0.05, 0.5}}
	var iresp insertResponse
	mustUnmarshal(t, postJSON(t, coord, "/insert", insertRequest{Points: ins}, http.StatusOK), &iresp)
	for i, id := range iresp.IDs {
		points[id] = ins[i]
	}
	postJSON(t, coord, "/flush", struct{}{}, http.StatusOK)

	// Kill B: gate its URL closed (a fresh, unopened startup gate — exactly
	// what a restarting process serves) and release its data directory.
	gate := server.NewStartupGate()
	var hGate http.Handler = gate
	curB.Store(&hGate)
	repB.Close()

	// Writes B misses. The write-all fan-out partially fails: the request
	// surfaces the error AND the group latches diverged.
	more := [][]float32{{0.02, 0.95, 0.4}, {0.95, 0.02, 0.7}, {0.4, 0.4, 0.02}}
	b, _ := json.Marshal(insertRequest{Points: more})
	if rec := postRaw(coord, "/insert", b); rec.Code == http.StatusOK {
		t.Fatalf("partial write-all reported success: %s", rec.Body.String())
	}
	// The surviving replica applied the batch; mirror its new live rows into
	// the oracle from A directly.
	snapA := repA.Updater().Flush()
	for id := int32(ds.Len() + len(ins)); int(id) < snapA.Len(); id++ {
		if snapA.Alive(id) {
			points[id] = snapA.Point(id)
		}
	}
	if !coord.curMap().shards[0].diverged.Load() {
		t.Fatal("partial write-all did not latch the diverged flag")
	}
	rec := httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health healthResponse
	mustUnmarshal(t, rec.Body.Bytes(), &health)
	if health.Status != "degraded" || len(health.DivergedShards) != 1 {
		t.Fatalf("healthz after partial write-all = %+v, want degraded+diverged", health)
	}

	// Restart B: recover its directory the way a restarted node does. The
	// recovered frontier is the pre-kill state — behind A.
	optB := skycube.Options{
		Threads: 2,
		Durable: skycube.DurableOptions{Dir: dirB, Fsync: "never", CheckpointEvery: -1},
	}
	recovered, err := skycube.OpenUpdater(optB)
	if err != nil {
		t.Fatalf("recover B: %v", err)
	}
	// The gate must still be closed — B has not reported ready while stale.
	if resp, err := http.Get(srvB.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("stale replica reported ready: %d", resp.StatusCode)
		}
	}

	// Anti-entropy: compare against the peer, find B behind, wipe it and
	// re-bootstrap from the freshest peer; then open the gate.
	node, _, err := rebalance.AntiEntropy(context.Background(), recovered, []string{srvA.URL}, optB)
	if err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	if node == nil {
		t.Fatalf("restarted replica at epoch %d vs peer %d not detected as behind",
			recovered.Current().Epoch(), repA.Updater().Current().Epoch())
	}
	repB2 := shardFromNode(t, node, ShardOptions{IDBase: 0, IDStride: 1})
	assertShardsEqual(t, repA, repB2, "after re-bootstrap")
	gate.Open(repB2)

	// The replicas agree again: the operator's POST /admin/refresh verifies
	// it directly and clears the diverged latch (the response map must show
	// the flag gone too).
	var refreshed adminMapResponse
	mustUnmarshal(t, postJSON(t, coord, "/admin/refresh", nil, http.StatusOK), &refreshed)
	for _, s := range refreshed.Shards {
		if s.Diverged {
			t.Fatalf("refresh response still flags shard %s diverged", s.Name)
		}
	}
	if coord.curMap().shards[0].diverged.Load() {
		t.Fatal("diverged latch survived a verified repair")
	}
	rec = httptest.NewRecorder()
	coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	health = healthResponse{}
	mustUnmarshal(t, rec.Body.Bytes(), &health)
	if health.Status == "degraded" || len(health.DivergedShards) != 0 {
		t.Fatalf("healthz still degraded after repair: %+v", health)
	}

	// Full service resumes: write-all succeeds, reads are exact.
	late := [][]float32{{0.3, 0.3, 0.03}}
	mustUnmarshal(t, postJSON(t, coord, "/insert", insertRequest{Points: late}, http.StatusOK), &iresp)
	for i, id := range iresp.IDs {
		points[id] = late[i]
	}
	postJSON(t, coord, "/flush", struct{}{}, http.StatusOK)
	for sub := mask.Mask(1); sub < 1<<3; sub++ {
		got := querySkyline(t, coord, sub, http.StatusOK)
		if want := bruteSkyline(points, sub); !equalIDs(got.IDs, want) {
			t.Fatalf("subspace %d after rejoin: ids %v, want %v", sub, got.IDs, want)
		}
	}
}

// TestCoordinatorRefreshRacesMapChanges hammers Refresh, dimsOrRefresh and
// query handlers against a churning membership (join/drain swaps advancing
// the map generation) — run under -race this is the shard-map lifecycle's
// data-race probe. Correctness of answers is covered elsewhere; here every
// response only has to be one of the protocol's sanctioned statuses.
func TestCoordinatorRefreshRacesMapChanges(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 83)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	var specs []ShardSpec
	var extras []string // second URL per shard, joinable/drainable
	for s, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{IDBase: s, IDStride: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		// A second server over the SAME shard: always frontier-identical, so
		// joins always pass verification.
		srv2 := httptest.NewServer(sh)
		t.Cleanup(srv2.Close)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: 2})
		extras = append(extras, srv2.URL)
	}
	coord, err := NewCoordinator(specs, CoordinatorOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tuneClient(coord, defaultHedgeDelay)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(format string, args ...interface{}) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Membership churn: join the extra replica, drain it, repeat. A join or
	// drain can legitimately lose an admin race (409/404) or fail its
	// write-gated verification against in-flight traffic (502); what it may
	// never do is corrupt the map the other goroutines read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			body, _ := json.Marshal(adminTargetRequest{Shard: fmt.Sprint(i % 2), Replica: extras[i%2]})
			for _, ep := range []string{"/admin/join", "/admin/drain"} {
				rec := postRaw(coord, ep, body)
				switch rec.Code {
				case http.StatusOK, http.StatusConflict, http.StatusNotFound, http.StatusBadGateway:
				default:
					fail("%s: status %d: %s", ep, rec.Code, rec.Body.String())
					return
				}
			}
		}
	}()

	// Refresh + dimsOrRefresh churn.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for !stop.Load() {
				if err := coord.Refresh(ctx); err != nil {
					fail("refresh: %v", err)
					return
				}
				if _, err := coord.dimsOrRefresh(ctx); err != nil {
					fail("dimsOrRefresh: %v", err)
					return
				}
			}
		}()
	}

	// Query handlers racing the swaps: 200 (possibly after internal stale
	// retries) or 503 (repeated swaps exhausted the bounded retry) are the
	// only sanctioned outcomes.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				sub := mask.Mask(1 + (w+i)%7)
				status, got, err := rawQuerySkyline(coord, sub)
				if status == http.StatusServiceUnavailable {
					continue
				}
				if err != nil {
					fail("query %d: %v", sub, err)
					return
				}
				if status != http.StatusOK || got.Partial {
					fail("query %d: status %d partial=%v", sub, status, got.Partial)
					return
				}
			}
		}(w)
	}

	// Writes racing the swaps: 200, or 409 when the map changed repeatedly
	// mid-batch (the handler's bounded retry), or 503 before dims resolve.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pts := skycube.GenerateSynthetic(skycube.Correlated, 50, 3, 831)
		for i := 0; !stop.Load(); i++ {
			b, _ := json.Marshal(insertRequest{Points: [][]float32{pts.Point(i % pts.Len())}})
			rec := postRaw(coord, "/insert", b)
			switch rec.Code {
			case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
			default:
				fail("insert: status %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The churn really churned: the map generation moved well past its seed.
	if gen := coord.curMap().gen; gen < 3 {
		t.Fatalf("map generation only reached %d; churn did not engage", gen)
	}
}

// TestCoordinatorAdoptsShardMapGeneration: shard nodes remember the highest
// map generation any coordinator ever sent them and 409 lower ones. A
// RESTARTED coordinator counts from 1 again — it must adopt the generation
// the shards report instead of being locked out of its own cluster: reads,
// writes, refresh and membership ops all have to work on the first try a
// human makes, not after some magic incantation.
func TestCoordinatorAdoptsShardMapGeneration(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 80, 3, 97)
	parts, err := ds.Partition(2, skycube.RoundRobinPartition)
	if err != nil {
		t.Fatal(err)
	}
	var specs []ShardSpec
	var extra string
	for s, part := range parts {
		sh, err := NewShard(part, skycube.Options{Threads: 2}, ShardOptions{IDBase: s, IDStride: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sh.Close)
		srv := httptest.NewServer(sh)
		t.Cleanup(srv.Close)
		specs = append(specs, ShardSpec{Replicas: []string{srv.URL}, IDBase: s, IDStride: 2})
		if s == 0 {
			srv2 := httptest.NewServer(sh)
			t.Cleanup(srv2.Close)
			extra = srv2.URL
		}
		// Teach the shard a high generation, as the previous coordinator's
		// map swaps would have.
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/shard/info", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(mapGenHeader, "7")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("priming gen 7: status %d", resp.StatusCode)
		}
	}

	coord, err := NewCoordinator(specs, CoordinatorOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tuneClient(coord, defaultHedgeDelay)

	// First read: attempt 1 carries gen 1 and collects 409s; the retry must
	// run on the adopted generation and succeed completely.
	full := mask.Mask(1<<3 - 1)
	if got := querySkyline(t, coord, full, http.StatusOK); got.Partial {
		t.Fatalf("partial read after adoption: %+v", got)
	}
	if g := coord.curMap().gen; g < 7 {
		t.Fatalf("map generation %d after read, want >= 7", g)
	}

	// Writes route on the adopted generation.
	var ins insertResponse
	mustUnmarshal(t, postJSON(t, coord, "/insert",
		insertRequest{Points: [][]float32{{0.1, 0.2, 0.3}}}, http.StatusOK), &ins)
	if len(ins.IDs) != 1 {
		t.Fatalf("insert after adoption: %+v", ins)
	}

	// The operator surface works without a refresh first: a join's frontier
	// verification adopts too.
	var joined adminSwapResponse
	mustUnmarshal(t, postJSON(t, coord, "/admin/join",
		adminTargetRequest{Shard: "0", Replica: extra}, http.StatusOK), &joined)
	if joined.Gen <= 7 {
		t.Fatalf("join published generation %d, want > 7", joined.Gen)
	}

	var refreshed adminMapResponse
	mustUnmarshal(t, postJSON(t, coord, "/admin/refresh", nil, http.StatusOK), &refreshed)
	if refreshed.Gen != joined.Gen {
		t.Fatalf("refresh sees generation %d, join published %d", refreshed.Gen, joined.Gen)
	}
}

// TestCoordinatorAdoptsOnFirstMembershipOp: the adoption above must also
// work when a membership operation is the restarted coordinator's FIRST
// contact with the cluster — the frontier check inside the join runs under
// the admin mutex, so its stale-generation retry must use the lock-held
// adoption path (a re-lock here deadlocks the admin surface forever).
func TestCoordinatorAdoptsOnFirstMembershipOp(t *testing.T) {
	ds := skycube.GenerateSynthetic(skycube.Independent, 60, 3, 99)
	sh, err := NewShard(ds, skycube.Options{Threads: 2}, ShardOptions{IDBase: 0, IDStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)
	srv2 := httptest.NewServer(sh)
	t.Cleanup(srv2.Close)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/shard/info", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(mapGenHeader, "5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	coord, err := NewCoordinator(
		[]ShardSpec{{Replicas: []string{srv.URL}, IDBase: 0, IDStride: 1}},
		CoordinatorOptions{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tuneClient(coord, defaultHedgeDelay)

	done := make(chan struct{})
	var joined adminSwapResponse
	go func() {
		defer close(done)
		mustUnmarshal(t, postJSON(t, coord, "/admin/join",
			adminTargetRequest{Shard: "0", Replica: srv2.URL}, http.StatusOK), &joined)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("join as the first operation hung: lock-held adoption path deadlocked")
	}
	if joined.Gen <= 5 {
		t.Fatalf("join published generation %d, want > 5", joined.Gen)
	}
}
