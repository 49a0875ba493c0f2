// Command perfbench measures the simulator's wall-clock performance — how
// fast the testbed itself runs, as opposed to the simulated latencies the
// figure generators report. It times every scenario of the
// experiments.Scenarios registry and records, per scenario, the simulated
// result (which optimizations must never change), the kernel event count,
// the best wall-clock time and the event throughput, then writes a JSON
// report. Every run is repeated -reps times and must reproduce its
// outcome exactly. Scenarios tagged "shardscale" are timed again at 2 and
// 4 shards; scenarios tagged "sweep" run at -j 1 and -j N, must produce
// byte-identical output, and record the parallel speedup.
//
// Usage:
//
//	perfbench                             # run the registry, print a table
//	perfbench -out BENCH_wallclock.json   # also write the JSON report
//	perfbench -reps 5                     # best-of-5 wall times
//	perfbench -j 8                        # sweep-engine workers for the sweep scenarios
//	perfbench -shards 4                   # scenarios on the sharded kernel
//	perfbench -before seed.txt -after new.txt -out BENCH_wallclock.json
//	perfbench -baseline old.json -out BENCH_wallclock.json
//	perfbench -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	perfbench -lintbench -out BENCH_wallclock.json
//
// The -baseline flag takes a previously written report and records the
// per-scenario instrumentation-off overhead against it (the observability
// layer's disabled-path cost: every scenario runs with no tracer or
// metrics registry attached beyond what the scenario itself attaches).
//
// The -before/-after flags take saved `go test -bench` outputs (the same
// benchmark set run on two trees) and embed per-benchmark wall-clock
// speedups in the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"qsmpi/internal/experiments"
	"qsmpi/internal/lint"
	lintdriver "qsmpi/internal/lint/driver"
	"qsmpi/internal/parsweep"
)

// row is one scenario's measurement.
type row struct {
	Name string   `json:"name"`
	Tags []string `json:"tags,omitempty"`
	// Shards is the worker-shard count the scenario ran with.
	Shards int `json:"shards"`
	// SimUS is the scenario's simulated-time result (mean latency for the
	// ping-pongs and collectives, elapsed virtual time otherwise); it is
	// the invariant — identical before and after any wall-clock
	// optimization.
	SimUS float64 `json:"sim_us"`
	// Events is the number of kernel events one run executes.
	Events int64 `json:"events"`
	// WallMS is the best-of-reps wall-clock time for one run (at -j 1
	// for sweep scenarios).
	WallMS float64 `json:"wall_ms"`
	// EventsPerSec is Events over the best wall time.
	EventsPerSec float64 `json:"events_per_sec"`
	// NSPerEvent is the mean wall cost of one simulator event.
	NSPerEvent float64 `json:"ns_per_event"`
	// Workers, ParWallMS and Speedup record a sweep scenario's run
	// through the parallel sweep engine: best wall time at Workers
	// workers, and WallMS/ParWallMS.
	Workers   int     `json:"workers,omitempty"`
	ParWallMS float64 `json:"par_wall_ms,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
}

// overheadEntry compares one workload's per-event wall cost against a
// prior report's run of the same workload. It records the observability
// instrumentation's disabled-path overhead: the workloads run with no
// tracer or registry attached, so any ratio above 1.0 is the price of the
// nil checks compiled into the hot paths.
type overheadEntry struct {
	Name       string  `json:"name"`
	BaselineNS float64 `json:"baseline_ns_per_event"`
	CurrentNS  float64 `json:"current_ns_per_event"`
	// Overhead is current/baseline ns-per-event; 1.02 means +2%.
	Overhead float64 `json:"overhead"`
}

// speedupEntry compares one `go test -bench` benchmark across two trees.
type speedupEntry struct {
	Benchmark string  `json:"benchmark"`
	BeforeMS  float64 `json:"before_ms_per_op"`
	AfterMS   float64 `json:"after_ms_per_op"`
	Speedup   float64 `json:"speedup"`
}

// lintBenchResult is the qsmpilint wall-clock section: the standalone
// driver's full-repo run, serial (the pre-sharding behavior) against the
// GOMAXPROCS-sharded dependency-ordered scheduler. On a single-core box
// the two mostly measure the same thing; the section exists so multi-core
// CI records the sharding win (and any regression) over time.
type lintBenchResult struct {
	Packages     int     `json:"packages"`
	Reps         int     `json:"reps"`
	SerialWallMS float64 `json:"serial_wall_ms"`
	ParWorkers   int     `json:"par_workers"`
	ParWallMS    float64 `json:"par_wall_ms"`
	Speedup      float64 `json:"speedup"`
}

// report is the BENCH_wallclock.json schema.
type report struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU qualifies every parallel number: on a single-core box the
	// sharded and -j N runs measure engine overhead, not speedup.
	NumCPU    int   `json:"num_cpu"`
	Reps      int   `json:"reps"`
	Workloads []row `json:"workloads"`
	// Lint is the qsmpilint serial-vs-sharded wall-clock section,
	// written by `perfbench -lintbench` (which patches this field into an
	// existing report without re-running the simulator scenarios).
	Lint *lintBenchResult `json:"lint,omitempty"`
	// SweepGeomean is the geometric-mean parallel-sweep speedup across
	// the sweep scenarios.
	SweepGeomean float64        `json:"sweep_geomean,omitempty"`
	Speedups     []speedupEntry `json:"speedups,omitempty"`
	MinSpeedup   float64        `json:"min_speedup,omitempty"`
	MeanSpeedup  float64        `json:"mean_speedup,omitempty"`
	// Baseline names the prior report -baseline compared against, and
	// ObsOverhead/ObsOverheadGeomean record the per-scenario and mean
	// instrumentation-off overhead relative to it.
	Baseline           string          `json:"baseline,omitempty"`
	ObsOverhead        []overheadEntry `json:"obs_overhead,omitempty"`
	ObsOverheadGeomean float64         `json:"obs_overhead_geomean,omitempty"`
}

// measureLintBench times the standalone qsmpilint driver over the full
// repo at par=1 (the pre-sharding serial loader) and par=GOMAXPROCS (the
// dependency-ordered sharded scheduler), best of reps each. Both runs
// include the `go list -export` load — that is what `make lint` pays.
func measureLintBench(reps int) *lintBenchResult {
	l, err := lintdriver.Load(".", "./...")
	if err != nil {
		log.Fatalf("perfbench: lint load: %v", err)
	}
	pkgs := 0
	for _, p := range l.Pkgs {
		if !p.Standard && len(p.GoFiles) > 0 {
			pkgs++
		}
	}

	run := func(par int) float64 {
		best := math.MaxFloat64
		for i := 0; i < reps; i++ {
			start := time.Now() //lint:allow detclock lint benchmarking measures real wall time by design
			findings, err := lintdriver.CheckParallel(".", lint.Analyzers(), par, "./...")
			if err != nil {
				log.Fatalf("perfbench: lint run: %v", err)
			}
			//lint:allow detclock lint benchmarking measures real wall time by design
			if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < best {
				best = ms
			}
			if len(findings) > 0 {
				fmt.Fprintf(os.Stderr, "perfbench: lint reported %d findings; timings cover a dirty tree\n", len(findings))
			}
		}
		return best
	}

	workers := runtime.GOMAXPROCS(0)
	res := &lintBenchResult{Packages: pkgs, Reps: reps, ParWorkers: workers}
	res.SerialWallMS = run(1)
	res.ParWallMS = run(workers)
	res.Speedup = res.SerialWallMS / res.ParWallMS
	fmt.Printf("%-22s %8s %12s %12s %10s\n", "lint", "pkgs", "par=1 ms", fmt.Sprintf("par=%d ms", workers), "speedup")
	fmt.Printf("%-22s %8d %12.2f %12.2f %9.2fx\n", "qsmpilint ./...", res.Packages, res.SerialWallMS, res.ParWallMS, res.Speedup)
	return res
}

// patchLintSection updates only the lint section of an existing
// BENCH_wallclock.json (creating a minimal report if the file is absent),
// leaving every simulator measurement untouched.
func patchLintSection(path string, res *lintBenchResult) {
	rep := &report{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, rep); err != nil {
			log.Fatalf("perfbench: %s: %v", path, err)
		}
	} else {
		//lint:allow detclock report timestamp is wall-clock metadata, not simulation state
		rep.Generated = time.Now().UTC().Format(time.RFC3339)
		rep.GoVersion = runtime.Version()
		rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
		rep.NumCPU = runtime.NumCPU()
	}
	rep.Lint = res
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("perfbench: %v", err)
	}
	fmt.Printf("wrote lint section of %s\n", path)
}

// measure runs a scenario reps times under cfg, keeps the best wall
// time, and fails if any repetition's outcome differs from the first.
func measure(sc experiments.Scenario, cfg experiments.Config, reps int) (row, experiments.Outcome) {
	r := row{Name: sc.Name, Tags: sc.Tags, Shards: cfg.Shards}
	var first experiments.Outcome
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now() //lint:allow detclock perfbench measures real wall time by design
		o := sc.Run(cfg)
		elapsed := time.Since(start) //lint:allow detclock perfbench measures real wall time by design
		if i == 0 {
			first = o
		} else if o != first {
			log.Fatalf("perfbench: %s is nondeterministic: repetition %d gave sim %.3fus/%d events/%d text bytes, first gave %.3fus/%d/%d",
				sc.Name, i+1, o.SimUS, o.Events, len(o.Text), first.SimUS, first.Events, len(first.Text))
		}
		best = min(best, elapsed)
	}
	r.SimUS, r.Events = first.SimUS, first.Events
	r.WallMS = float64(best.Nanoseconds()) / 1e6
	r.EventsPerSec = float64(r.Events) / best.Seconds()
	r.NSPerEvent = float64(best.Nanoseconds()) / float64(r.Events)
	return r, first
}

// benchLine matches `go test -bench` result lines, e.g.
// "BenchmarkFig7BasicRDMA-8   2   64538012 ns/op ...".
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// parseBench extracts benchmark-name → ms/op from saved bench output.
// Repeated runs of the same benchmark (interleaved executions or -count)
// keep the minimum, the standard way to reject scheduler noise.
func parseBench(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, m := range benchLine.FindAllStringSubmatch(string(data), -1) {
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad ns/op in %q", path, m[0])
		}
		ms := ns / 1e6
		if prev, ok := out[m[1]]; !ok || ms < prev {
			out[m[1]] = ms
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

func speedups(beforePath, afterPath string) ([]speedupEntry, error) {
	before, err := parseBench(beforePath)
	if err != nil {
		return nil, err
	}
	after, err := parseBench(afterPath)
	if err != nil {
		return nil, err
	}
	var out []speedupEntry
	for name, b := range before {
		a, ok := after[name]
		if !ok {
			continue
		}
		out = append(out, speedupEntry{Benchmark: name, BeforeMS: b, AfterMS: a, Speedup: b / a})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no common benchmarks between %s and %s", beforePath, afterPath)
	}
	// Deterministic report order.
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out, nil
}

func main() {
	reps := flag.Int("reps", 3, "wall-time repetitions per scenario (best is kept)")
	out := flag.String("out", "", "write the JSON report to this file")
	before := flag.String("before", "", "saved `go test -bench` output from the baseline tree")
	after := flag.String("after", "", "saved `go test -bench` output from the optimized tree")
	workers := flag.Int("j", 0, "sweep-engine workers for the sweep scenarios (0 = one per core)")
	baseline := flag.String("baseline", "", "prior BENCH_wallclock.json: record per-scenario instrumentation-off overhead against it")
	shards := flag.Int("shards", 1, "worker shards for the scenario runs (conservative parallel kernel; ≤1 = classic engine)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering every measured run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after all runs) to this file")
	lintbench := flag.Bool("lintbench", false, "measure the qsmpilint serial-vs-sharded wall-clock and patch the lint section of -out (skips every scenario)")
	flag.Parse()

	if *lintbench {
		res := measureLintBench(*reps)
		if *out != "" {
			patchLintSection(*out, res)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	// Read the baseline up front so -out may safely overwrite the same file.
	var base *report
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		base = &report{}
		if err := json.Unmarshal(data, base); err != nil {
			log.Fatalf("perfbench: %s: %v", *baseline, err)
		}
	}

	rep := report{
		//lint:allow detclock report timestamp is wall-clock metadata, not simulation state
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       *reps,
	}
	w := parsweep.Resolve(*workers)
	fmt.Printf("%-32s %6s %14s %12s %12s %14s %10s\n",
		"scenario", "shards", "sim-us", "events", "wall-ms", "events/sec", "ns/event")
	emit := func(r row) {
		rep.Workloads = append(rep.Workloads, r)
		fmt.Printf("%-32s %6d %14.3f %12d %12.2f %14.0f %10.1f\n",
			r.Name, r.Shards, r.SimUS, r.Events, r.WallMS, r.EventsPerSec, r.NSPerEvent)
	}
	var sweeps []row
	for _, sc := range experiments.Scenarios {
		cfg := experiments.Config{Shards: *shards, Workers: 1}
		r, seq := measure(sc, cfg, *reps)
		if sc.Has("sweep") {
			cfg.Workers = w
			p, par := measure(sc, cfg, *reps)
			if par != seq {
				log.Fatalf("perfbench: %s output differs between -j 1 and -j %d:\n%s\nvs\n%s",
					sc.Name, w, seq.Text, par.Text)
			}
			r.Workers, r.ParWallMS, r.Speedup = w, p.WallMS, r.WallMS/p.WallMS
			sweeps = append(sweeps, r)
		}
		emit(r)
		if sc.Has("shardscale") {
			// The 8-node all-to-all is the parallelizable workload: at 4
			// shards each worker owns two node stacks.
			for _, n := range []int{2, 4} {
				if n != *shards {
					r, _ := measure(sc, experiments.Config{Shards: n}, *reps)
					r.Name = fmt.Sprintf("%s/shards=%d", sc.Name, n)
					emit(r)
				}
			}
		}
	}

	if len(sweeps) > 0 {
		fmt.Printf("\n%-32s %12s %12s %10s\n", "sweep", "j=1 ms", fmt.Sprintf("j=%d ms", w), "speedup")
		prod := 1.0
		for _, r := range sweeps {
			prod *= r.Speedup
			fmt.Printf("%-32s %12.2f %12.2f %9.2fx\n", r.Name, r.WallMS, r.ParWallMS, r.Speedup)
		}
		rep.SweepGeomean = math.Pow(prod, 1/float64(len(sweeps)))
		fmt.Printf("parallel sweep geomean %.2fx at %d workers\n", rep.SweepGeomean, w)
	}

	if base != nil {
		rep.Baseline = *baseline
		prod, n := 1.0, 0
		fmt.Printf("\n%-32s %12s %12s %10s\n", "overhead vs baseline", "base ns/ev", "now ns/ev", "ratio")
		for _, cur := range rep.Workloads {
			for _, b := range base.Workloads {
				if b.Name != cur.Name || b.NSPerEvent <= 0 {
					continue
				}
				if cur.SimUS != b.SimUS || cur.Events != b.Events {
					fmt.Fprintf(os.Stderr,
						"perfbench: %s simulated result changed vs baseline (%.3fus/%d events, was %.3fus/%d) — ratio compares different work\n",
						cur.Name, cur.SimUS, cur.Events, b.SimUS, b.Events)
				}
				e := overheadEntry{Name: cur.Name, BaselineNS: b.NSPerEvent,
					CurrentNS: cur.NSPerEvent, Overhead: cur.NSPerEvent / b.NSPerEvent}
				rep.ObsOverhead = append(rep.ObsOverhead, e)
				prod *= e.Overhead
				n++
				fmt.Printf("%-32s %12.1f %12.1f %9.3fx\n", e.Name, e.BaselineNS, e.CurrentNS, e.Overhead)
			}
		}
		if n > 0 {
			rep.ObsOverheadGeomean = math.Pow(prod, 1/float64(n))
			fmt.Printf("instrumentation-off overhead geomean %.3fx (vs %s)\n", rep.ObsOverheadGeomean, *baseline)
		}
	}

	if (*before == "") != (*after == "") {
		log.Fatal("perfbench: -before and -after must be given together")
	}
	if *before != "" {
		sp, err := speedups(*before, *after)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		rep.Speedups = sp
		rep.MinSpeedup = sp[0].Speedup
		prod := 1.0
		for _, s := range sp {
			if s.Speedup < rep.MinSpeedup {
				rep.MinSpeedup = s.Speedup
			}
			prod *= s.Speedup
		}
		rep.MeanSpeedup = math.Pow(prod, 1/float64(len(sp)))
		fmt.Println()
		for _, s := range sp {
			fmt.Printf("%-34s %10.2f -> %8.2f ms/op  %5.2fx\n",
				s.Benchmark, s.BeforeMS, s.AfterMS, s.Speedup)
		}
		fmt.Printf("min speedup %.2fx, geomean %.2fx\n", rep.MinSpeedup, rep.MeanSpeedup)
	}

	if *out != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *memprofile != "" {
		runtime.GC() // materialize only live allocations in the profile
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("perfbench: %v", err)
		}
		fmt.Printf("wrote %s\n", *memprofile)
	}
}
