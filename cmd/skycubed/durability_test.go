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

// TestSIGTERMRestartByteIdentical: write, stop with SIGTERM (the clean
// path: drain, sync, close the WAL), restart from the same directory —
// /skyline must come back byte-identical, ETag included, under every
// fsync policy (a clean shutdown loses nothing even with -fsync never).
func TestSIGTERMRestartByteIdentical(t *testing.T) {
	bin := skycubedBinary(t)
	for _, policy := range []string{"always", "never"} {
		t.Run(policy, func(t *testing.T) {
			ds := skycube.GenerateSynthetic(skycube.Independent, 100, 3, 71)
			dataFile := writeDataset(t, ds)
			dataDir := filepath.Join(t.TempDir(), "wal")
			addr := freeAddr(t)
			args := []string{"-serve", addr, "-updates", "-data-dir", dataDir, "-fsync", policy, dataFile}

			n := startNode(t, bin, args...)
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
