package skycube

import (
	"encoding/json"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"skycube/internal/hetero"
	"skycube/internal/mask"
	"skycube/internal/obs"
	"skycube/internal/skyline"
)

// TestBuildTraceCoverage checks the tentpole acceptance criterion: a traced
// MDMC build emits spans whose build-category union covers ≥ 99% of
// Stats.Elapsed, and the Chrome export is valid JSON.
func TestBuildTraceCoverage(t *testing.T) {
	ds := GenerateSynthetic(Anticorrelated, 2000, 6, 11)
	tr := NewTrace()
	_, stats, err := Build(ds, Options{Algorithm: MDMC, Threads: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("trace recorded no spans")
	}
	if cov := tr.Coverage(obs.CatBuild, stats.Elapsed); cov < 0.99 {
		t.Errorf("build span covers %.4f of Elapsed, want ≥ 0.99", cov)
	}
	var buf strings.Builder
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < tr.Len() {
		t.Errorf("Chrome export has %d events for %d spans", len(doc.TraceEvents), tr.Len())
	}
	// The prepare phases must be present, and the point tasks on per-worker
	// chunk tracks: workers pull chunks off one counter, so which of the four
	// record a span is the scheduler's choice (a worker that never wins a grab
	// has no track), but every task is in exactly one chunk.
	tracks := map[string]bool{}
	for _, trk := range tr.Tracks() {
		tracks[trk] = true
	}
	if !tracks["build"] || !tracks["prepare"] {
		t.Errorf("missing expected tracks in %v", tr.Tracks())
	}
	var lanes []string
	for lane := range 4 {
		lanes = append(lanes, hetero.ChunkTrack("CPU", lane))
	}
	var tasks int64
	for _, s := range tr.Spans() {
		if s.Cat != obs.CatChunk {
			continue
		}
		if !slices.Contains(lanes, s.Track) {
			t.Errorf("chunk span on track %q, want one of the CPU device's lanes 0 … 3", s.Track)
		}
		tasks += s.N
	}
	ext := skyline.ExtendedSkyline(ds.ds, nil, mask.Full(6), skyline.AlgoHybrid, 1)
	if tasks != int64(len(ext)) {
		t.Errorf("chunk spans cover %d point tasks, want |S⁺(P)| = %d", tasks, len(ext))
	}
}

// TestBuildTraceLattice smoke-tests span recording on the lattice paths.
func TestBuildTraceLattice(t *testing.T) {
	// Coverage is measured from NewTrace, so whatever happens between it and
	// the build span's start — a preemption, a GC assist — counts as
	// uncovered. 5 000 × 8 makes every build last a quarter of a second or
	// more: 1 % of it is longer than a scheduler timeslice.
	ds := GenerateSynthetic(Independent, 5000, 8, 4)
	for _, algo := range []Algorithm{STSC, SDSC, PQSkycube, QSkycube} {
		tr := NewTrace()
		_, stats, err := Build(ds, Options{Algorithm: algo, Threads: 2, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		var cuboids int
		for _, s := range spans {
			if s.Cat == obs.CatCuboid {
				cuboids++
			}
		}
		// One span per non-empty subspace of an 8-d space.
		if want := 255; cuboids != want {
			t.Errorf("%v: %d cuboid spans, want %d", algo, cuboids, want)
		}
		if cov := tr.Coverage(obs.CatBuild, stats.Elapsed); cov < 0.99 {
			t.Errorf("%v: build coverage %.4f", algo, cov)
		}
	}
}

// TestBuildTraceCrossDevice smoke-tests the hetero paths: spans land on
// device-named tracks.
func TestBuildTraceCrossDevice(t *testing.T) {
	ds := GenerateSynthetic(Anticorrelated, 800, 5, 6)
	for _, algo := range []Algorithm{SDSC, MDMC} {
		tr := NewTrace()
		_, _, err := Build(ds, Options{
			Algorithm: algo, Threads: 2, GPUs: []GPUModel{GTX980}, CPUAlso: true, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, trk := range tr.Tracks() {
			seen[hetero.DeviceOfTrack(trk)] = true
		}
		if !seen["GTX980-1"] && !seen["CPU0"] && !seen["CPU1"] {
			t.Errorf("%v: no device tracks in %v", algo, tr.Tracks())
		}
	}
}

// TestBuildProgress checks the ProgressFunc option on both a lattice and
// the MDMC algorithm.
func TestBuildProgress(t *testing.T) {
	ds := GenerateSynthetic(Independent, 400, 5, 8)

	var calls, lastDone atomic.Int64
	_, _, err := Build(ds, Options{Algorithm: SDSC, Threads: 2, Progress: func(p Progress) {
		calls.Add(1)
		if p.Algorithm != SDSC || p.TotalCuboids != 31 {
			t.Errorf("progress = %+v", p)
		}
		if int64(p.CuboidsDone) > lastDone.Load() {
			lastDone.Store(int64(p.CuboidsDone))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 31 || lastDone.Load() != 31 {
		t.Errorf("SDSC progress: %d calls, max done %d, want 31", calls.Load(), lastDone.Load())
	}

	var points atomic.Int64
	var total atomic.Int64
	_, _, err = Build(ds, Options{Algorithm: MDMC, Threads: 2, Progress: func(p Progress) {
		points.Store(int64(p.PointsDone))
		total.Store(int64(p.TotalPoints))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if points.Load() == 0 || points.Load() != total.Load() {
		t.Errorf("MDMC progress ended at %d/%d points", points.Load(), total.Load())
	}
}

// TestBuildMetrics checks the Metrics option populates build counters.
func TestBuildMetrics(t *testing.T) {
	ds := GenerateSynthetic(Independent, 400, 5, 8)
	reg := NewMetrics()
	_, _, err := Build(ds, Options{Algorithm: MDMC, Threads: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Build(ds, Options{
		Algorithm: SDSC, Threads: 2, GPUs: []GPUModel{GTX980}, CPUAlso: true, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`skycube_builds_total{algorithm="MDMC"} 1`,
		`skycube_builds_total{algorithm="SDSC"} 1`,
		"skycube_build_seconds_bucket",
		"skycube_points_total",
		"skycube_cuboids_total",
		`skycube_device_share_fraction{device="CPU0"}`,
		`skycube_gpu_instructions_total{device="GTX980-1"}`,
		`skycube_gpu_model_seconds{device="GTX980-1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestMaterialisedCuboids pins the TotalCuboids arithmetic.
func TestMaterialisedCuboids(t *testing.T) {
	for _, c := range []struct{ d, maxLevel, want int }{
		{5, 0, 31},
		{5, 5, 31},
		{5, 9, 31},
		{5, 2, 5 + 10},
		{6, 1, 6},
	} {
		if got := materialisedCuboids(c.d, c.maxLevel); got != c.want {
			t.Errorf("materialisedCuboids(%d, %d) = %d, want %d", c.d, c.maxLevel, got, c.want)
		}
	}
}
