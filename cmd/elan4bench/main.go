// Command elan4bench regenerates the PTL/Elan4 design-analysis experiments
// of the paper: Fig. 7 (basic RDMA read/write, inline and datatype
// variants), Fig. 8 (chained DMA and shared completion queue), Fig. 9
// (per-layer communication cost) and Table 1 (thread-based asynchronous
// progress).
//
// Usage:
//
//	elan4bench            # everything
//	elan4bench -fig 7     # one figure (7, 8 or 9)
//	elan4bench -table 1   # table 1
//	elan4bench -iters 200 # more timing iterations per point
//	elan4bench -j 8       # eight sweep workers (output identical at any -j)
package main

import (
	"flag"
	"fmt"
	"os"

	"qsmpi/internal/cluster"
	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/trace"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate (7, 8 or 9; 0 = all)")
	table := flag.Int("table", 0, "table to regenerate (1; 0 = per -fig)")
	ablate := flag.Bool("ablate", false, "run the ablation sweeps instead of the paper figures")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	iters := flag.Int("iters", 100, "timing iterations per point")
	workers := flag.Int("j", 0, "parallel sweep workers (0 = one per core)")
	stats := flag.Bool("stats", false, "print sweep-engine worker stats to stderr")
	traceOut := flag.String("trace", "", "also write a Perfetto trace of one representative exchange to this file")
	metrics := flag.Bool("metrics", false, "also print cross-layer metrics of one representative exchange")
	breakdown := flag.Bool("breakdown", false, "also print the phase decomposition and critical path of one representative exchange")
	traceSize := flag.Int("tracesize", 4096, "message size for the -trace/-metrics/-breakdown representative exchange")
	flag.Parse()
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "elan4bench: -iters must be at least 1, got %d\n", *iters)
		flag.Usage()
		os.Exit(2)
	}
	var st parsweep.Stats
	cfg := experiments.DefaultConfig().WithIters(*iters)
	cfg.Workers = *workers
	cfg.Stats = &st
	emit := func(r *experiments.Result) {
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", r.ID, r.Title, r.CSV())
			return
		}
		fmt.Println(r.Render())
	}
	defer func() {
		if *stats {
			fmt.Fprint(os.Stderr, st.String())
		}
	}()

	if *ablate {
		for _, r := range experiments.Ablations(cfg) {
			emit(r)
		}
		observe(*traceOut, *metrics, *breakdown, *traceSize)
		return
	}

	var results []*experiments.Result
	switch {
	case *table == 1:
		results = append(results, experiments.Table1(cfg))
	case *fig == 7:
		results = append(results,
			experiments.Fig7(cfg, experiments.Fig7SmallSizes, "a"),
			experiments.Fig7(cfg, experiments.Fig7LargeSizes, "b"))
	case *fig == 8:
		results = append(results, experiments.Fig8(cfg, experiments.Fig8Sizes))
	case *fig == 9:
		results = append(results, experiments.Fig9(cfg, experiments.Fig9Sizes))
	case *fig == 0 && *table == 0:
		results = append(results,
			experiments.Fig7(cfg, experiments.Fig7SmallSizes, "a"),
			experiments.Fig7(cfg, experiments.Fig7LargeSizes, "b"),
			experiments.Fig8(cfg, experiments.Fig8Sizes),
			experiments.Fig9(cfg, experiments.Fig9Sizes),
			experiments.Table1(cfg))
	default:
		fmt.Fprintf(os.Stderr, "elan4bench: unknown figure %d / table %d\n", *fig, *table)
		os.Exit(2)
	}
	for _, r := range results {
		emit(r)
	}
	observe(*traceOut, *metrics, *breakdown, *traceSize)
}

// observe runs one representative best-RDMA-read exchange with full-stack
// instrumentation attached. The sweeps above never see the tracer (a
// recorder must not be shared across sweep workers), so their figures are
// untouched by these flags.
func observe(traceOut string, metrics, breakdown bool, size int) {
	if traceOut == "" && !metrics && !breakdown {
		return
	}
	rec, reg := trace.NewRecorder(0), obs.New()
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	experiments.PingPong{Size: size, Iters: 1, Tracer: rec, Metrics: reg}.
		OpenMPI(cluster.Spec{Elan: &opts, Progress: pml.Polling})
	if metrics {
		fmt.Printf("\n# representative exchange (%d B, best RDMA-read): cross-layer metrics\n", size)
		fmt.Print(reg.Snapshot().Render())
	}
	if breakdown {
		prof := obs.Analyze(rec.Events())
		fmt.Printf("\n# representative exchange (%d B, best RDMA-read): phase decomposition\n", size)
		fmt.Print(prof.RenderBreakdown())
		fmt.Printf("\n")
		fmt.Print(prof.RenderCritical())
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "elan4bench: %v\n", err)
			os.Exit(1)
		}
		if err := obs.WritePerfettoFrom(f, rec); err != nil {
			fmt.Fprintf(os.Stderr, "elan4bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "elan4bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s (load at ui.perfetto.dev)\n", rec.Len(), traceOut)
	}
}
