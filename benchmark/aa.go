package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// specFile is the part of BENCHMARK.json the A/A tool and the tests read.
type specFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is BENCHMARK.json as seen from the root of a checkout, where
// run.sh starts the program.
const specPath = "BENCHMARK.json"

func readSpec(path string) (*specFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s specFile
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first quartile, the median and the third quartile the
// way Python's statistics.quantiles(v, n=4) does (the driver's method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs the same code as two sides, A and B: per workload n untraced runs
// each, alternating which side goes first, and one traced run each. It prints,
// per end-to-end metric and workload, both sides' medians and quartiles, each
// side's spread (q3 − q1 over the median) and how much worse B's median is
// than A's, and fails when a spread or that difference exceeds the metric's
// bound, or when a count declared exact differs between the two traced runs.
func runAA(cfg config, n int) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		var sides [2]map[string][]float64
		sides[0], sides[1] = map[string][]float64{}, map[string][]float64{}
		cfg.w, cfg.trace = w, false
		for i := 0; i < n; i++ {
			for k := 0; k < 2; k++ {
				side := (i + k) % 2 // A first on even pairs, B first on odd ones
				res, err := run(cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				if res.failed > 0 {
					return fmt.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
				}
				for _, d := range res.defs {
					sides[side][d.name] = append(sides[side][d.name], res.value(d))
				}
			}
		}
		for _, sm := range sp.EndToEnd {
			a1, a2, a3 := quartiles(sides[0][sm.Name])
			b1, b2, b3 := quartiles(sides[1][sm.Name])
			worse := (b2 - a2) / a2
			if sm.Better == "higher" {
				worse = -worse
			}
			spread := max((a3-a1)/a2, (b3-b1)/b2)
			ok := worse <= sm.Bound && (spread <= sm.Bound || sm.Name == "setup_s")
			if !ok {
				bad++
			}
			fmt.Printf("%-15s %-18s A %.5g [%.5g, %.5g]  B %.5g [%.5g, %.5g] %s  spread %.3f  B worse by %+.3f  bound %.2f  within=%v\n",
				w.name, sm.Name, a2, a1, a3, b2, b1, b3, sm.Unit, spread, worse, sm.Bound, ok)
		}

		cfg.trace = true
		var traced [2]metricSet
		for side := range traced {
			res, err := run(cfg)
			if err != nil {
				return fmt.Errorf("%s traced: %w", w.name, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s traced: %d of %d operations failed", w.name, res.failed, res.attempted)
			}
			traced[side] = res.metrics
		}
		for _, name := range exactCounts {
			a, b := traced[0].value(name), traced[1].value(name)
			if a != b {
				bad++
			}
			fmt.Printf("%-15s %-18s A %v  B %v  exact=%v\n", w.name, name, a, b, a == b)
		}
	}
	if bad > 0 {
		return errors.New(fmt.Sprint(bad, " comparisons outside their bound or not exact"))
	}
	return nil
}
