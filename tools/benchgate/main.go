// Command benchgate compares `go test -bench` output against a committed
// baseline file (BENCH_serve.json, BENCH_wal.json) and fails on performance
// regressions, making the CI bench-smoke job a gate instead of a printout.
//
// Usage:
//
//	go test -run=NONE -bench ... -benchmem ./... | tee bench.txt
//	benchgate -baseline BENCH_serve.json bench.txt
//
// A benchmark regresses when its best observed ns/op exceeds the baseline's
// by more than -threshold (default 0.30, the 30%% gate), or when a
// baseline-zero allocs/op benchmark starts allocating, or when a custom metric
// the baseline lists under "exact" (a hardware-independent count such as
// cmp/delete) reads anything else in any run. Benchmarks present in only one
// of the two sides are reported but never fail the gate, so the baseline does
// not have to enumerate every bench CI happens to run.
//
// With -count > 1 the minimum per benchmark is compared — the minimum is the
// least noisy estimator of the true cost on a shared CI runner.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baselineFile mirrors the committed BENCH_*.json layout.
type baselineFile struct {
	Description string          `json:"description"`
	Benchmarks  []baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	Name        string  `json:"name"`
	Package     string  `json:"package"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Exact maps the unit of a b.ReportMetric value to the number every run
	// must print.
	Exact map[string]float64 `json:"exact"`
	Note  string             `json:"note"`
}

// result is the best (minimum ns/op) observation of one benchmark in the
// parsed output.
type result struct {
	name    string
	pkg     string
	nsPerOp float64
	allocs  float64
	// hasAllocs records whether the line carried -benchmem columns.
	hasAllocs bool
	runs      int
	// values holds every run's value of each unit, b.ReportMetric's included.
	values map[string][]float64
}

// benchLine matches one go-test benchmark result line: the name, the
// iteration count, then "value unit" pairs. The -N GOMAXPROCS suffix is
// stripped from the name; sub-benchmark slashes stay.
var benchLine = regexp.MustCompile(`^(Benchmark[^\s]+?)(?:-\d+)?\s+\d+\s+(.+)$`)

var pkgLine = regexp.MustCompile(`^pkg:\s+(\S+)`)

// parseBench reads go-test bench output, tracking `pkg:` headers and keeping
// the minimum ns/op per benchmark name.
func parseBench(r io.Reader) (map[string]*result, error) {
	out := map[string]*result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		if m := pkgLine.FindStringSubmatch(line); m != nil {
			pkg = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pairs := strings.Fields(m[2])
		vals := map[string]float64{}
		for i := 0; i+1 < len(pairs); i += 2 {
			v, err := strconv.ParseFloat(pairs[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %v", pairs[i+1], line, err)
			}
			vals[pairs[i+1]] = v
		}
		ns, ok := vals["ns/op"]
		if !ok {
			continue
		}
		name := m[1]
		res := out[name]
		if res == nil {
			res = &result{name: name, pkg: pkg, nsPerOp: ns, values: map[string][]float64{}}
			out[name] = res
		}
		res.runs++
		if ns < res.nsPerOp {
			res.nsPerOp = ns
		}
		if allocs, ok := vals["allocs/op"]; ok {
			if !res.hasAllocs || allocs > res.allocs {
				res.allocs = allocs // worst-case allocs: they should be deterministic
			}
			res.hasAllocs = true
		}
		for unit, v := range vals {
			res.values[unit] = append(res.values[unit], v)
		}
	}
	return out, sc.Err()
}

// gate compares results against the baseline. It returns human-readable
// report lines and the subset that are hard failures.
func gate(base []baselineEntry, results map[string]*result, threshold float64) (report, failures []string) {
	for _, b := range base {
		res, ok := results[b.Name]
		if !ok {
			report = append(report, fmt.Sprintf("   skip %-42s not in this run", b.Name))
			continue
		}
		if res.pkg != "" && b.Package != "" && res.pkg != b.Package {
			failures = append(failures, fmt.Sprintf("MISMATCH %s ran in %s, baseline names %s", b.Name, res.pkg, b.Package))
			continue
		}
		delta := (res.nsPerOp - b.NsPerOp) / b.NsPerOp
		line := fmt.Sprintf("%-46s %10.1f ns/op vs baseline %10.1f (%+.1f%%)",
			b.Name, res.nsPerOp, b.NsPerOp, delta*100)
		switch {
		case delta > threshold:
			failures = append(failures, "REGRESSION "+line)
		default:
			report = append(report, "     ok "+line)
		}
		if res.hasAllocs && b.AllocsPerOp == 0 && res.allocs > 0 {
			failures = append(failures, fmt.Sprintf(
				"REGRESSION %-42s allocates %.0f allocs/op, baseline is allocation-free", b.Name, res.allocs))
		}
		for unit, want := range b.Exact {
			got := res.values[unit]
			if len(got) == 0 {
				failures = append(failures, fmt.Sprintf("MISSING %-45s reports no %s, baseline pins %v", b.Name, unit, want))
			}
			for _, v := range got {
				if v != want {
					failures = append(failures, fmt.Sprintf("CHANGED %-45s %s %v, baseline pins %v", b.Name, unit, v, want))
					break
				}
			}
		}
	}
	known := map[string]bool{}
	for _, b := range base {
		known[b.Name] = true
	}
	for name := range results {
		if !known[name] {
			report = append(report, fmt.Sprintf("   note %-42s has no baseline entry", name))
		}
	}
	return report, failures
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON file (BENCH_serve.json layout)")
	threshold := flag.Float64("threshold", 0.30, "relative ns/op regression that fails the gate")
	optional := flag.Bool("optional", false, "treat a missing baseline file as a pass (per-file opt-in for baselines not yet committed on every branch)")
	flag.Parse()
	if *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}
	raw, err := os.ReadFile(*baseline)
	if err != nil {
		if *optional && os.IsNotExist(err) {
			fmt.Printf("benchgate: %s absent, -optional set — skipping gate\n", *baseline)
			return
		}
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %v\n", *baseline, err)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		var readers []io.Reader
		for _, name := range flag.Args() {
			f, err := os.Open(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchgate:", err)
				os.Exit(2)
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}
	results, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines in input")
		os.Exit(2)
	}

	report, failures := gate(bf.Benchmarks, results, *threshold)
	fmt.Printf("benchgate: %s, threshold %+.0f%%\n", *baseline, *threshold*100)
	for _, l := range report {
		fmt.Println(l)
	}
	for _, l := range failures {
		fmt.Println(l)
	}
	if len(failures) > 0 {
		fmt.Printf("benchgate: %d regression(s)\n", len(failures))
		os.Exit(1)
	}
	fmt.Println("benchgate: pass")
}
