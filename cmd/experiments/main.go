// Command experiments regenerates the paper's evaluation: every figure and
// table of §7 and Appendix A has a corresponding subcommand that prints the
// measured rows/series.
//
// Usage:
//
//	experiments [-scale tiny|small|paper] <experiment>...
//	experiments -scale small all
//
// Experiments: fig4, fig5, fig6, fig7, fig8-11 (aliases fig8…fig11), fig12,
// fig13, table2, table3, ablations, all.
//
// The default "small" scale completes on a laptop in tens of minutes; the
// "paper" scale uses the publication's exact workload parameters and may
// run for many hours.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"skycube/internal/bench"
)

func main() {
	scaleName := flag.String("scale", "small", "workload scale: tiny, small, or paper")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	scale, err := bench.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	experiments := map[string]func(){
		"fig4":      func() { bench.Fig4(os.Stdout, scale) },
		"fig5":      func() { bench.Fig5(os.Stdout, scale) },
		"fig6":      func() { bench.Fig6(os.Stdout, scale) },
		"fig7":      func() { bench.Fig7(os.Stdout, scale) },
		"fig8-11":   func() { bench.FigHardware(os.Stdout, scale) },
		"fig12":     func() { bench.Fig12(os.Stdout, scale) },
		"fig13":     func() { bench.Fig13(os.Stdout, scale) },
		"table2":    func() { bench.Table2(os.Stdout, scale) },
		"table3":    func() { bench.Table3(os.Stdout, scale) },
		"ablations": func() { bench.Ablations(os.Stdout, scale) },
	}
	for _, alias := range []string{"fig8", "fig9", "fig10", "fig11"} {
		experiments[alias] = experiments["fig8-11"]
	}

	var order []string
	if flag.NArg() == 1 && flag.Arg(0) == "all" {
		order = []string{"fig4", "fig5", "fig6", "fig7", "fig8-11", "fig12", "fig13",
			"table2", "table3", "ablations"}
	} else {
		order = flag.Args()
	}
	for _, name := range order {
		run, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		run()
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: experiments [-scale tiny|small|paper] <experiment>...

experiments:
  fig4       QSkycube vs PQSkycube, single-threaded
  fig5       modelled speedup vs threads, 1 vs 2 sockets
  fig6       CPU execution times vs n, d, distribution
  fig7       GPU and cross-device execution times
  fig8-11    modelled hardware counters (cache, stalls, TLB, CPI)
  fig12      per-device work shares
  fig13      partial skycube computation
  table2     real dataset stand-in specifications
  table3     execution times on real-data stand-ins
  ablations  design-decision ablation timings
  all        everything above, in order`)
}
