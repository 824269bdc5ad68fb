package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"skycube"
)

// These tests build the real binary and crash it — SIGTERM for the clean
// path, SIGKILL for the chaotic one — so they exercise the full stack:
// flag parsing, the startup gate, recovery, and the signal/drain loop.
// Skipped under -short; CI runs them in a dedicated job.

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func skycubedBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess test: skipped in -short mode")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "skycubed-bin-*")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "skycubed")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func writeDataset(t *testing.T, ds *skycube.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

type node struct {
	cmd *exec.Cmd
	url string
	out syncBuffer
}

// syncBuffer is a node's combined output. exec's copy goroutine writes it
// while the node runs, and a test may read it meanwhile.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startNode(t *testing.T, bin string, args ...string) *node {
	t.Helper()
	n := &node{cmd: exec.Command(bin, args...)}
	n.cmd.Stdout = &n.out
	n.cmd.Stderr = &n.out
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if n.cmd.ProcessState == nil {
			n.cmd.Process.Kill()
			n.cmd.Wait()
		}
	})
	return n
}

func (n *node) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("node never became ready; output:\n%s", n.out.String())
}

func (n *node) waitExit(t *testing.T) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		n.cmd.Process.Kill()
		t.Fatalf("node did not exit; output:\n%s", n.out.String())
	}
}

func httpGetBody(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

// TestSIGTERMRestartByteIdentical: write to a maintained node, stop it with
// SIGTERM (the clean path: drain, sync, close the WAL), restart it from its
// directory alone, without the data file — /skyline must come back
// byte-identical, ETag included, under every fsync policy (a clean shutdown
// loses nothing even with -fsync never).
func TestSIGTERMRestartByteIdentical(t *testing.T) {
	bin := skycubedBinary(t)
	for _, policy := range []string{"always", "never"} {
		t.Run(policy, func(t *testing.T) {
			ds := skycube.GenerateSynthetic(skycube.Independent, 100, 3, 71)
			dataFile := writeDataset(t, ds)
			dataDir := filepath.Join(t.TempDir(), "wal")
			addr := freeAddr(t)
			args := []string{"-serve", addr, "-shard", "-data-dir", dataDir, "-fsync", policy}

			n := startNode(t, bin, append(args, dataFile)...)
			n.url = "http://" + addr
			n.waitReady(t)

			post := func(path, body string) {
				t.Helper()
				resp, err := http.Post(n.url+path, "application/json", strings.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, b)
				}
			}
			post("/insert", `{"points":[[0.5,0.1,0.9],[0.2,0.8,0.3],[0.7,0.7,0.1]]}`)
			post("/flush", "")
			post("/insert", `{"points":[[0.05,0.05,0.95]]}`)
			post("/flush", "")
			code, want, hdr := httpGetBody(t, n.url+"/skyline?dims=0,1,2")
			if code != http.StatusOK {
				t.Fatalf("skyline: %d: %s", code, want)
			}
			wantETag := hdr.Get("ETag")

			if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			n.waitExit(t)

			n2 := startNode(t, bin, args...)
			n2.url = "http://" + addr
			n2.waitReady(t)
			code, got, hdr := httpGetBody(t, n2.url+"/skyline?dims=0,1,2")
			if code != http.StatusOK {
				t.Fatalf("skyline after restart: %d: %s", code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("restarted /skyline diverged:\n got %s\nwant %s\nnode output:\n%s",
					got, want, n2.out.String())
			}
			if et := hdr.Get("ETag"); et != wantETag {
				t.Fatalf("restarted ETag %q, want %q (epoch not restored exactly)", et, wantETag)
			}
			if !strings.Contains(n2.out.String(), "WAL records replayed") {
				t.Fatalf("restart output missing replay report:\n%s", n2.out.String())
			}
			n2.cmd.Process.Signal(syscall.SIGTERM)
			n2.waitExit(t)
		})
	}
}

// TestSIGKILLStormRecovery is the crash-chaos test: a shard node under a
// write storm is SIGKILLed at varied points (mid-append, mid-commit,
// mid-checkpoint — -checkpoint-every 16 keeps checkpoints in flight),
// restarted, and after retrying the in-flight batch the recovered node
// must agree with a never-killed in-process oracle on every answer.
// Acknowledged batches retried after the crash must replay, not re-apply.
func TestSIGKILLStormRecovery(t *testing.T) {
	bin := skycubedBinary(t)
	ds := skycube.GenerateSynthetic(skycube.Independent, 80, 3, 72)
	dataFile := writeDataset(t, ds)
	dataDir := filepath.Join(t.TempDir(), "wal")
	addr := freeAddr(t)
	args := []string{"-serve", addr, "-shard", "-id-base", "0", "-id-stride", "1",
		"-data-dir", dataDir, "-fsync", "always", "-checkpoint-every", "16", dataFile}

	oracle, err := skycube.NewUpdater(ds, skycube.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	pool := skycube.GenerateSynthetic(skycube.Independent, 4096, 3, 73)
	nextPoint := 0
	takePoints := func(k int) [][]float32 {
		pts := make([][]float32, k)
		for i := range pts {
			pts[i] = pool.Point(nextPoint % pool.Len())
			nextPoint++
		}
		return pts
	}

	type batch struct {
		id     string
		points [][]float32
		ack    []byte // nil until acknowledged
	}
	var batches []*batch
	batchSeq := 0

	// applyToOracle mirrors one acknowledged batch into the oracle,
	// asserting the ids the node assigned are exactly the oracle's.
	applyToOracle := func(t *testing.T, b *batch) {
		t.Helper()
		var resp struct {
			IDs []int32 `json:"ids"`
		}
		if err := json.Unmarshal(b.ack, &resp); err != nil {
			t.Fatalf("batch %s ack %q: %v", b.id, b.ack, err)
		}
		if len(resp.IDs) != len(b.points) {
			t.Fatalf("batch %s: %d ids for %d points", b.id, len(resp.IDs), len(b.points))
		}
		for i, p := range b.points {
			id, err := oracle.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if id != resp.IDs[i] {
				t.Fatalf("batch %s point %d: node id %d, oracle id %d — recovery lost or duplicated an insert",
					b.id, i, resp.IDs[i], id)
			}
		}
	}

	client := &http.Client{Timeout: 5 * time.Second}
	postJSON := func(url, body string) (int, []byte, error) {
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}

	compare := func(t *testing.T, n *node, round int) {
		t.Helper()
		if code, b, err := postJSON(n.url+"/flush", ""); err != nil || code != http.StatusOK {
			t.Fatalf("round %d: flush: %d %s (%v)", round, code, b, err)
		}
		oracle.Flush()
		for _, dims := range []string{"0,1,2", "0,1", "2"} {
			code, body, _ := httpGetBody(t, n.url+"/skyline?dims="+dims)
			if code != http.StatusOK {
				t.Fatalf("round %d: skyline dims=%s: %d: %s", round, dims, code, body)
			}
			var resp struct {
				IDs []int32 `json:"ids"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			delta, err := parseDims(dims)
			if err != nil {
				t.Fatal(err)
			}
			want := oracle.Current().Skyline(delta)
			if !reflect.DeepEqual(resp.IDs, want) {
				t.Fatalf("round %d: recovered skyline dims=%s diverged from never-killed oracle:\n got %v\nwant %v",
					round, dims, resp.IDs, want)
			}
		}
	}

	var inflight *batch
	for round, killAfter := range []time.Duration{
		120 * time.Millisecond, 250 * time.Millisecond, 400 * time.Millisecond,
	} {
		n := startNode(t, bin, args...)
		n.url = "http://" + addr
		n.waitReady(t)

		// Dedup check: re-send a long-acknowledged batch; the reply must be
		// the original ack byte for byte, across a crash and a restart.
		if len(batches) > 2 {
			old := batches[1]
			code, body, err := postJSON(n.url+"/insert",
				fmt.Sprintf(`{"points":%s,"batch":%q}`, mustJSON(old.points), old.id))
			if err != nil || code != http.StatusOK {
				t.Fatalf("round %d: replaying batch %s: %d %s (%v)", round, old.id, code, body, err)
			}
			if !bytes.Equal(body, old.ack) {
				t.Fatalf("round %d: batch %s replay diverged:\n got %s\nwant %s",
					round, old.id, body, old.ack)
			}
		}

		killed := make(chan struct{})
		go func() {
			time.Sleep(killAfter)
			n.cmd.Process.Kill() // SIGKILL: no drain, no WAL close
			close(killed)
		}()

	storm:
		for {
			b := &batch{id: fmt.Sprintf("storm-%d", batchSeq), points: takePoints(2)}
			batchSeq++
			code, body, err := postJSON(n.url+"/insert",
				fmt.Sprintf(`{"points":%s,"batch":%q}`, mustJSON(b.points), b.id))
			if err != nil {
				inflight = b // unknown state: durable, applied, or lost
				break storm
			}
			if code != http.StatusOK {
				t.Fatalf("round %d: insert %s: %d: %s", round, b.id, code, body)
			}
			b.ack = body
			applyToOracle(t, b)
			batches = append(batches, b)
			if batchSeq%5 == 0 {
				if _, _, err := postJSON(n.url+"/flush", ""); err != nil {
					break storm // flush died with the node; reconciled by compare()
				}
				oracle.Flush()
			}
		}
		<-killed
		n.waitExit(t)

		// Recover and verify: the restarted node must agree with the oracle.
		n2 := startNode(t, bin, args...)
		n2.url = "http://" + addr
		n2.waitReady(t)
		if inflight != nil {
			code, body, err := postJSON(n2.url+"/insert",
				fmt.Sprintf(`{"points":%s,"batch":%q}`, mustJSON(inflight.points), inflight.id))
			if err != nil || code != http.StatusOK {
				t.Fatalf("round %d: retrying in-flight batch %s: %d %s (%v)",
					round, inflight.id, code, body, err)
			}
			inflight.ack = body
			applyToOracle(t, inflight)
			batches = append(batches, inflight)
			inflight = nil
		}
		compare(t, n2, round)
		n2.cmd.Process.Kill()
		n2.waitExit(t)
	}
	if len(batches) < 6 {
		t.Fatalf("storm too small to mean anything: %d acknowledged batches", len(batches))
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func parseDims(spec string) (skycube.Subspace, error) {
	var delta skycube.Subspace
	for _, part := range strings.Split(spec, ",") {
		var dim int
		if _, err := fmt.Sscanf(part, "%d", &dim); err != nil {
			return 0, err
		}
		delta |= skycube.SubspaceOf(dim)
	}
	return delta, nil
}

// startShard launches a durable shard node on a fresh address and waits
// until it reports ready.
func startShard(t *testing.T, bin string, args ...string) *node {
	t.Helper()
	addr := freeAddr(t)
	n := startNode(t, bin, append([]string{"-serve", addr, "-shard", "-fsync", "never"}, args...)...)
	n.url = "http://" + addr
	n.waitReady(t)
	return n
}

// stop SIGTERMs a node and waits for its clean exit.
func (n *node) stop(t *testing.T) {
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	n.waitExit(t)
}

// postOK POSTs a JSON body and fails the test on any status but 200.
func postOK(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", url, resp.StatusCode, b)
	}
}

// nodeEpoch reads a ready node's serving epoch from /healthz.
func nodeEpoch(t *testing.T, n *node) uint64 {
	t.Helper()
	code, body, _ := httpGetBody(t, n.url+"/healthz")
	var h struct {
		Epoch uint64 `json:"epoch"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &h) != nil {
		t.Fatalf("healthz: %d: %s", code, body)
	}
	return h.Epoch
}

// skylineAnswers fetches /skyline for every subspace of a d-dimensional
// node: the response bodies and their ETags, in subspace order.
func skylineAnswers(t *testing.T, n *node, d int) (bodies [][]byte, etags []string) {
	t.Helper()
	for sub := 1; sub < 1<<d; sub++ {
		var dims []string
		for i := 0; i < d; i++ {
			if sub&(1<<i) != 0 {
				dims = append(dims, fmt.Sprint(i))
			}
		}
		code, body, hdr := httpGetBody(t, n.url+"/skyline?dims="+strings.Join(dims, ","))
		if code != http.StatusOK {
			t.Fatalf("skyline dims=%s: %d: %s", strings.Join(dims, ","), code, body)
		}
		bodies = append(bodies, body)
		etags = append(etags, hdr.Get("ETag"))
	}
	return bodies, etags
}

// assertSameSkylines fails unless two nodes answer every subspace with the
// same bytes.
func assertSameSkylines(t *testing.T, a, b *node, d int, stage string) {
	t.Helper()
	want, _ := skylineAnswers(t, a, d)
	got, _ := skylineAnswers(t, b, d)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: subspace %d diverged:\n got %s\nwant %s", stage, i+1, got[i], want[i])
		}
	}
}

// TestJoinFromPeerThenRestart drives -join-from end to end. A replica joins
// from a durable shard seeded by a partition file and mutated since (so the
// join replays a WAL tail on top of the snapshot). It must answer every
// subspace byte-identically to its peer, and interpret its copied rows with
// the peer's id scheme, which the peer's snapshot stream carries. After a
// SIGTERM it restarts from its data directory alone: every answer and ETag
// comes back unchanged, and so does its full-space frame.
func TestJoinFromPeerThenRestart(t *testing.T) {
	bin := skycubedBinary(t)
	const d = 4
	ds := skycube.GenerateSynthetic(skycube.Anticorrelated, 1500, d, 74)
	src := startShard(t, bin, "-id-base", "1", "-id-stride", "2",
		"-data-dir", filepath.Join(t.TempDir(), "src"), writeDataset(t, ds))
	postOK(t, src.url+"/insert", `{"points":[[0.05,0.9,0.4,0.6],[0.9,0.05,0.6,0.4]]}`)
	postOK(t, src.url+"/flush", "")
	postOK(t, src.url+"/delete", `{"ids":[3,5]}`)
	postOK(t, src.url+"/flush", "")

	joinDir := filepath.Join(t.TempDir(), "joiner")
	joiner := startShard(t, bin, "-join-from", src.url, "-data-dir", joinDir)
	assertSameSkylines(t, src, joiner, d, "joined replica")
	full := fmt.Sprintf("/shard/cuboid?subspace=%d", 1<<d-1)
	_, wantFrame, _ := httpGetBody(t, src.url+full)
	if _, got, _ := httpGetBody(t, joiner.url+full); !bytes.Equal(got, wantFrame) {
		t.Fatal("joined replica's full-space frame differs from its peer's: id scheme not inherited")
	}

	wantBodies, wantETags := skylineAnswers(t, joiner, d)
	joiner.stop(t)
	re := startShard(t, bin, "-data-dir", joinDir)
	gotBodies, gotETags := skylineAnswers(t, re, d)
	for i := range wantETags {
		if gotETags[i] != wantETags[i] || !bytes.Equal(gotBodies[i], wantBodies[i]) {
			t.Fatalf("subspace %d after restart: ETag %q, want %q; body\n%s\nwant\n%s\noutput:\n%s",
				i+1, gotETags[i], wantETags[i], gotBodies[i], wantBodies[i], re.out.String())
		}
	}
	if _, got, _ := httpGetBody(t, re.url+full); !bytes.Equal(got, wantFrame) {
		t.Fatal("restarted replica's full-space frame differs from its peer's: id scheme lost on restart")
	}
	re.stop(t)
}

// TestShardRefusesDisagreeingIDScheme: a shard's id scheme is fixed at its
// first start. Restarting its directory with -id-base/-id-stride that
// disagree must exit non-zero and name both schemes, and negative values
// are a usage error.
func TestShardRefusesDisagreeingIDScheme(t *testing.T) {
	bin := skycubedBinary(t)
	ds := skycube.GenerateSynthetic(skycube.Independent, 200, 3, 77)
	dir := filepath.Join(t.TempDir(), "shard")
	startShard(t, bin, "-id-base", "1", "-id-stride", "2", "-data-dir", dir, writeDataset(t, ds)).stop(t)

	for _, tc := range []struct {
		args []string
		code int
		say  []string
	}{
		{[]string{"-id-base", "0", "-id-stride", "3"}, 1, []string{"Base:0 Stride:3", "Base:1 Stride:2"}},
		{[]string{"-id-stride", "-1"}, 2, []string{"must not be negative"}},
	} {
		n := startNode(t, bin, append([]string{"-serve", freeAddr(t), "-shard", "-data-dir", dir}, tc.args...)...)
		n.waitExit(t)
		if code := n.cmd.ProcessState.ExitCode(); code != tc.code {
			t.Fatalf("%v: exit code %d, want %d; output:\n%s", tc.args, code, tc.code, n.out.String())
		}
		for _, want := range tc.say {
			if !strings.Contains(n.out.String(), want) {
				t.Fatalf("%v: output does not name %q:\n%s", tc.args, want, n.out.String())
			}
		}
	}
	// Agreeing flags, or none, start the directory as before.
	startShard(t, bin, "-id-base", "1", "-id-stride", "2", "-data-dir", dir).stop(t)
	startShard(t, bin, "-data-dir", dir).stop(t)
}

// TestShardRefusesTraceFile: -trace writes a build's trace, which a -shard
// node never makes; the combination is a usage error, not a silent no-op.
func TestShardRefusesTraceFile(t *testing.T) {
	bin := skycubedBinary(t)
	trace := filepath.Join(t.TempDir(), "t.json")
	ds := skycube.GenerateSynthetic(skycube.Independent, 50, 3, 78)
	n := startNode(t, bin, "-serve", freeAddr(t), "-shard", "-trace", trace, writeDataset(t, ds))
	n.waitExit(t)
	if code := n.cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(n.out.String(), "-trace") {
		t.Fatalf("exit code %d, want 2 and a message naming -trace; output:\n%s", code, n.out.String())
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Fatalf("trace file: %v, want none", err)
	}
}

// TestJoinedReplicaExportsItsMetrics: a joiner's own /metrics must carry
// its WAL series and the bootstrap it ran, exactly as a shard built from a
// file carries its WAL series.
func TestJoinedReplicaExportsItsMetrics(t *testing.T) {
	bin := skycubedBinary(t)
	ds := skycube.GenerateSynthetic(skycube.Independent, 500, 3, 75)
	src := startShard(t, bin, "-data-dir", filepath.Join(t.TempDir(), "src"), writeDataset(t, ds))
	joiner := startShard(t, bin, "-join-from", src.url, "-data-dir", filepath.Join(t.TempDir(), "joiner"))
	postOK(t, joiner.url+"/insert", `{"points":[[0.1,0.2,0.3]]}`)
	postOK(t, joiner.url+"/flush", "")

	_, body, _ := httpGetBody(t, joiner.url+"/metrics")
	if v := metricValue(string(body), "skycube_wal_appended_records_total"); v <= 0 {
		t.Errorf("joiner's skycube_wal_appended_records_total = %v, want > 0", v)
	}
	if v := metricValue(string(body), "skycube_rebalance_bootstraps_total"); v != 1 {
		t.Errorf("joiner's skycube_rebalance_bootstraps_total = %v, want 1", v)
	}
	if t.Failed() {
		t.Logf("joiner /metrics:\n%s", body)
	}
}

// metricValue sums a metric family's samples over all label sets in a
// Prometheus text exposition; a missing family reads as -1.
func metricValue(exposition, name string) float64 {
	sum, found := 0.0, false
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(rest[strings.LastIndexByte(rest, ' ')+1:], &v); err == nil {
			sum, found = sum+v, true
		}
	}
	if !found {
		return -1
	}
	return sum
}

// TestRestartedReplicaCatchesUpBeforeReady: a replica that missed writes
// while it was down restarts with -peers. Its recovered state is behind its
// peer's, so anti-entropy must re-bootstrap it before /healthz ever answers
// 200: the first ready answer already carries the peer's epoch.
func TestRestartedReplicaCatchesUpBeforeReady(t *testing.T) {
	bin := skycubedBinary(t)
	const d = 3
	ds := skycube.GenerateSynthetic(skycube.Independent, 800, d, 76)
	dataFile := writeDataset(t, ds)
	peer := startShard(t, bin, "-data-dir", filepath.Join(t.TempDir(), "peer"), dataFile)
	dirB := filepath.Join(t.TempDir(), "replica")
	b := startShard(t, bin, "-data-dir", dirB, dataFile)
	for _, n := range []*node{peer, b} {
		postOK(t, n.url+"/insert", `{"points":[[0.05,0.9,0.3]]}`)
		postOK(t, n.url+"/flush", "")
	}
	b.stop(t)

	postOK(t, peer.url+"/insert", `{"points":[[0.02,0.95,0.4],[0.95,0.02,0.7]]}`)
	postOK(t, peer.url+"/flush", "")
	postOK(t, peer.url+"/delete", `{"ids":[0,1,2]}`)
	postOK(t, peer.url+"/flush", "")
	want := nodeEpoch(t, peer)

	addr := freeAddr(t)
	re := startNode(t, bin, "-serve", addr, "-shard", "-fsync", "never",
		"-data-dir", dirB, "-peers", peer.url)
	re.url = "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never became ready; output:\n%s", re.out.String())
		}
		resp, err := http.Get(re.url + "/healthz")
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		var h struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if h.Epoch != want {
			t.Fatalf("replica reported ready at epoch %d, peer is at %d; output:\n%s",
				h.Epoch, want, re.out.String())
		}
		break
	}
	assertSameSkylines(t, peer, re, d, "re-bootstrapped replica")
	re.stop(t)
}
