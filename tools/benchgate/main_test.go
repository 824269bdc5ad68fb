package main

import (
	"fmt"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: skycube/internal/server
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServeHot-8   	   20000	       251.3 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeHot-8   	   20000	       249.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeHot-8   	   20000	       267.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkServeCold-8  	   20000	     11983 ns/op	    3084 B/op	      28 allocs/op
PASS
ok  	skycube/internal/server	2.412s
pkg: skycube/internal/wal
BenchmarkWALCommit/interval-8         	    5000	       801.2 ns/op	     112 B/op	       5 allocs/op
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	hot := results["BenchmarkServeHot"]
	if hot == nil {
		t.Fatal("BenchmarkServeHot not parsed")
	}
	// Minimum of the three runs, with the -8 suffix stripped.
	if hot.nsPerOp != 249.9 || hot.runs != 3 {
		t.Fatalf("hot = %+v, want min 249.9 over 3 runs", hot)
	}
	if hot.pkg != "skycube/internal/server" || !hot.hasAllocs || hot.allocs != 0 {
		t.Fatalf("hot metadata = %+v", hot)
	}
	cold := results["BenchmarkServeCold"]
	if cold == nil || cold.nsPerOp != 11983 || cold.allocs != 28 {
		t.Fatalf("cold = %+v", cold)
	}
	// Sub-benchmark names keep their slash and pick up the later pkg header.
	sub := results["BenchmarkWALCommit/interval"]
	if sub == nil || sub.pkg != "skycube/internal/wal" || sub.nsPerOp != 801.2 {
		t.Fatalf("sub-benchmark = %+v", sub)
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	results, err := parseBench(strings.NewReader(
		"BenchmarkX-4   1000   500.0 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	x := results["BenchmarkX"]
	if x == nil || x.hasAllocs || x.nsPerOp != 500.0 {
		t.Fatalf("no-benchmem line = %+v", x)
	}
}

func TestGateThreshold(t *testing.T) {
	base := []baselineEntry{
		{Name: "BenchmarkServeHot", Package: "skycube/internal/server", NsPerOp: 252.0},
		{Name: "BenchmarkServeCold", Package: "skycube/internal/server", NsPerOp: 11572},
		{Name: "BenchmarkAbsent", Package: "skycube/internal/server", NsPerOp: 100},
	}
	results := map[string]*result{
		// 5% slower: inside the 30% gate.
		"BenchmarkServeHot": {name: "BenchmarkServeHot", pkg: "skycube/internal/server", nsPerOp: 264.6},
		// 50% slower: regression.
		"BenchmarkServeCold": {name: "BenchmarkServeCold", pkg: "skycube/internal/server", nsPerOp: 17358},
		// No baseline: reported, never failed.
		"BenchmarkNovel": {name: "BenchmarkNovel", nsPerOp: 1},
	}
	report, failures := gate(base, results, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkServeCold") {
		t.Fatalf("failures = %v, want exactly the 50%% regression", failures)
	}
	joined := strings.Join(report, "\n")
	for _, want := range []string{"BenchmarkServeHot", "BenchmarkAbsent", "BenchmarkNovel"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("report missing %s:\n%s", want, joined)
		}
	}
}

func TestGateImprovementPasses(t *testing.T) {
	base := []baselineEntry{{Name: "BenchmarkY", NsPerOp: 1000}}
	results := map[string]*result{"BenchmarkY": {name: "BenchmarkY", nsPerOp: 400}}
	if _, failures := gate(base, results, 0.30); len(failures) != 0 {
		t.Fatalf("a 60%% improvement failed the gate: %v", failures)
	}
}

func TestGateAllocRegression(t *testing.T) {
	base := []baselineEntry{
		{Name: "BenchmarkHot", NsPerOp: 250, AllocsPerOp: 0},
	}
	results := map[string]*result{
		"BenchmarkHot": {name: "BenchmarkHot", nsPerOp: 251, hasAllocs: true, allocs: 2},
	}
	_, failures := gate(base, results, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocation-free") {
		t.Fatalf("failures = %v, want the alloc regression", failures)
	}
	// Without -benchmem columns the alloc gate cannot judge and stays quiet.
	results["BenchmarkHot"].hasAllocs = false
	if _, failures := gate(base, results, 0.30); len(failures) != 0 {
		t.Fatalf("alloc gate fired without benchmem data: %v", failures)
	}
}

func TestGatePackageMismatch(t *testing.T) {
	base := []baselineEntry{{Name: "BenchmarkZ", Package: "skycube/internal/server", NsPerOp: 100}}
	results := map[string]*result{
		"BenchmarkZ": {name: "BenchmarkZ", pkg: "skycube/internal/wal", nsPerOp: 100},
	}
	_, failures := gate(base, results, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "MISMATCH") {
		t.Fatalf("failures = %v, want a package mismatch", failures)
	}
}

// A baseline entry's exact metrics are counts, not timings: any other value
// in any run fails, as does a run that no longer reports the unit, while the
// -benchmem columns after the custom ones are still read.
func TestGateExactMetric(t *testing.T) {
	const line = "BenchmarkFlushDeletes/I_d6_n15000-2 \t 200\t 6594343 ns/op\t %s cmp/delete\t 442210 B/op\t 597 allocs/op\n"
	base := []baselineEntry{{
		Name: "BenchmarkFlushDeletes/I_d6_n15000", NsPerOp: 6500000, AllocsPerOp: 597,
		Exact: map[string]float64{"cmp/delete": 2924},
	}}
	gateOn := func(out string) []string {
		results, err := parseBench(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if res := results[base[0].Name]; res == nil || !res.hasAllocs || res.allocs != 597 {
			t.Fatalf("result = %+v, want the allocs column read past the custom metric", res)
		}
		_, failures := gate(base, results, 0.30)
		return failures
	}
	same := fmt.Sprintf(line, "2924")
	if failures := gateOn(same + same); len(failures) != 0 {
		t.Fatalf("identical counts failed the gate: %v", failures)
	}
	if failures := gateOn(same + fmt.Sprintf(line, "2925")); len(failures) != 1 || !strings.Contains(failures[0], "CHANGED") {
		t.Fatalf("failures = %v, want the changed count of the second run", failures)
	}
	noMetric := strings.Replace(same, "2924 cmp/delete\t ", "", 1)
	if failures := gateOn(noMetric); len(failures) != 1 || !strings.Contains(failures[0], "MISSING") {
		t.Fatalf("failures = %v, want the missing metric", failures)
	}
}
