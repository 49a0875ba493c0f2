// Command ompibench regenerates Fig. 10 of the paper: the overall latency
// and bandwidth of Open MPI over Quadrics/Elan4 (both rendezvous schemes,
// best options) against the MPICH-QsNetII baseline.
//
// Usage:
//
//	ompibench             # all four panels
//	ompibench -panel a    # one of a (small latency), b (large latency),
//	                      # c (small bandwidth), d (large bandwidth)
//	ompibench -j 8        # eight sweep workers (output identical at any -j)
package main

import (
	"flag"
	"fmt"
	"os"

	"qsmpi/internal/experiments"
	"qsmpi/internal/parsweep"
)

func main() {
	panel := flag.String("panel", "", "panel to regenerate (a, b, c, d; empty = all)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	iters := flag.Int("iters", 100, "timing iterations per point")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = one per core)")
	stats := flag.Bool("stats", false, "print sweep-engine worker stats to stderr")
	flag.Parse()
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "ompibench: -iters must be at least 1, got %d\n", *iters)
		flag.Usage()
		os.Exit(2)
	}
	var st parsweep.Stats
	cfg := experiments.DefaultConfig().WithIters(*iters)
	cfg.Workers = *workers
	cfg.Stats = &st

	type p struct {
		name  string
		sizes []int
		bw    bool
	}
	panels := []p{
		{"a-latency", experiments.Fig10SmallSizes, false},
		{"b-latency", experiments.Fig10LargeSizes, false},
		{"c-bandwidth", experiments.Fig10SmallSizes, true},
		{"d-bandwidth", experiments.Fig10LargeSizes, true},
	}
	for _, pp := range panels {
		if *panel != "" && pp.name[0] != (*panel)[0] {
			continue
		}
		r := experiments.Fig10(cfg, pp.sizes, pp.name, pp.bw)
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", r.ID, r.Title, r.CSV())
		} else {
			fmt.Println(r.Render())
		}
	}
	if *stats {
		fmt.Fprint(os.Stderr, st.String())
	}
	if *panel != "" && len(*panel) > 0 {
		switch (*panel)[0] {
		case 'a', 'b', 'c', 'd':
		default:
			fmt.Fprintf(os.Stderr, "ompibench: unknown panel %q\n", *panel)
			os.Exit(2)
		}
	}
}
