package main

import (
	"math"
	"regexp"
	"testing"

	"skycube"
)

// tiny shrinks a workload to a smoke test: the same stages and code paths
// over 300 points, one batch of each kind and two writes in each loop.
func tiny(w workload) workload {
	w.build.n, w.update.n, w.serve.n = 300, 300, 300
	w.batches100, w.batches1000, w.batches25 = 1, 1, 1
	w.closedOps, w.openOps, w.openRate = 2*writeEvery, 2*writeEvery, 1000
	return w
}

// tinyConfig is one cycle of the tiny workload.
func tinyConfig(t *testing.T, w workload, traced bool) config {
	return config{w: tiny(w), seed: defaultSeed, dataSeed: defaultDataSeed, minCycles: 1, trace: traced, dir: t.TempDir()}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload, traced and untraced, emits each metric BENCHMARK.json names
// for that mode exactly once, finite, with its unit — run checks the names
// against the catalogue, this test the catalogue against BENCHMARK.json — and
// no operation fails.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("workload %s of BENCHMARK.json is not in the code", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(tinyConfig(t, w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, res.failed, res.attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) || len(res.defs) != len(want) {
				t.Errorf("%s traced=%v: %d metrics measured, %d reported, BENCHMARK.json names %d",
					w.name, traced, len(res.metrics), len(res.defs), len(want))
			}
			reported := map[string]float64{}
			for _, d := range res.defs {
				reported[d.name] = res.value(d)
			}
			for _, sm := range want {
				v, ok := reported[sm.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (reported: %v)", w.name, traced, sm.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above 0", w.name, sm.Name, v)
				}
			}
		}
	}
}

// The catalogue in metrics.go and BENCHMARK.json name the same metrics with
// the same units, in both directions, and the file keeps the contract's
// limits the benchmark relies on.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the sizes are calibrated for %d", spec.RunSeconds, refSeconds)
	}
	compare := func(kind string, code []metricDef, file []specMetric) {
		units := map[string]string{}
		for _, d := range code {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s metric name %q has characters outside letters, digits, _ . -", kind, d.name)
			}
			if _, dup := units[d.name]; dup {
				t.Errorf("%s metric %s is in the code twice", kind, d.name)
			}
			units[d.name] = d.unit
		}
		seen := map[string]bool{}
		for _, sm := range file {
			unit, ok := units[sm.Name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is in BENCHMARK.json but not in the code", kind, sm.Name)
			case unit != sm.Unit:
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the code", kind, sm.Name, sm.Unit, unit)
			case seen[sm.Name]:
				t.Errorf("%s metric %s is in BENCHMARK.json twice", kind, sm.Name)
			}
			seen[sm.Name] = true
			if sm.Better != "lower" && sm.Better != "higher" {
				t.Errorf("%s metric %s: better = %q", kind, sm.Name, sm.Better)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %s is in the code but not in BENCHMARK.json", kind, name)
			}
		}
	}
	compare("end-to-end", endToEnd, spec.EndToEnd)
	compare("per-layer", perLayer, spec.PerLayer)
	for _, sm := range spec.EndToEnd {
		if sm.Bound <= 0 || sm.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", sm.Name, sm.Bound)
		}
	}
	for _, name := range exactCounts {
		found := false
		for _, d := range perLayer {
			found = found || d.name == name
		}
		if !found {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}

// dropOne is a deliberately wrong oracle: the right cube minus one id of the
// full-space skyline.
type dropOne struct {
	c    cube
	full skycube.Subspace
}

func (d dropOne) Skyline(delta skycube.Subspace) []int32 {
	ids := d.c.Skyline(delta)
	if delta == d.full && len(ids) > 0 {
		return ids[1:]
	}
	return ids
}

// A wrong oracle must show as failed operations: the checks are not vacuous.
func TestAWrongOracleFailsTheRun(t *testing.T) {
	w, _ := findWorkload("wide")
	cfg := tinyConfig(t, w, false)
	fx, err := setUp(cfg, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.close()
	right, _, err := skycube.Build(fx.ds, skycube.Options{Algorithm: skycube.QSkycube})
	if err != nil {
		t.Fatal(err)
	}
	d := cfg.w.build.d
	if n := wrongSubspaces(right, right, d); n != 0 {
		t.Fatalf("a cube differs from itself on %d subspaces", n)
	}
	if n := wrongSubspaces(right, dropOne{right, skycube.FullSpace(d)}, d); n != 1 {
		t.Errorf("wrong oracle: %d subspaces differ, want 1", n)
	}

	// The serve stage's check, fed one read whose reply lacks a skyline member.
	var tl tally
	dr := &driver{c: fx.cluster, samples: []sampledRead{{gen: 0, delta: skycube.FullSpace(cfg.w.serve.d), body: []byte(`{"ids":[]}`)}}}
	if err := dr.checkAgainstSingleNode(fx, cfg, nil, &tl, true); err != nil {
		t.Fatal(err)
	}
	if tl.failed != 1 {
		t.Errorf("a wrong reply failed %d of %d checks, want 1", tl.failed, tl.attempted)
	}
}
