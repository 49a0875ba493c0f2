// Command qsbench is the repository benchmark. It runs one of three
// seeded, closed-loop workloads on the simulated Open MPI over
// Quadrics/Elan4 testbed and measures it on two clocks: virtual time,
// the performance of the reproduced MPI, and host time, the performance
// of the simulator.
//
//	bash qsbench/run.sh --workload pingpong --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it repeats untraced trials (set-up and run of the whole
// workload) for --seconds and reports the end-to-end metrics. With
// --trace 1 it alternates untraced and traced trials of the same seed and
// reports the per-layer metrics. Every trial runs in a child process of
// its own, so no trial's memory or leftover goroutines reach another's
// figures. Every trial checks every payload and reduction result, and
// the virtual-time digest must repeat across trials. The last line of
// standard output is one JSON object; the exit status is non-zero when
// any operation failed or the digest was unstable.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"op_host_us_p50", "us"},
	{"op_host_us_tail", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_op_us_p50", "us"},
	{"sim_op_us_tail", "us"},
	{"sim_mb_per_s", "MB/s"},
}

// minTrials is the fewest trials a run makes, whatever --seconds says:
// enough for a set-up median and a digest comparison.
const minTrials = 3

func main() {
	fs := flag.NewFlagSet("qsbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: pingpong, alltoall or collectives")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	child := fs.String("child", "", "internal: run one trial in this process (plain, traced or probe)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, err := generate(*name, *seed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		rep, err := runChild(w, *child)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qsbench:", err)
			os.Exit(2)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}
	var res result
	if *traced == 1 {
		res = runLayers(os.Stdout, w, *seconds)
	} else {
		res = runEndToEnd(os.Stdout, w, *seconds)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qsbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// childReport is what one trial measured, passed from the child process
// that ran it to the parent as one JSON line.
type childReport struct {
	Mode      string    `json:"mode"`
	Digest    string    `json:"digest"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errs      []string  `json:"errs,omitempty"`
	SetupS    float64   `json:"setup_s"`
	RunS      float64   `json:"run_s"`
	OpsPerS   float64   `json:"ops_per_s"`
	HostUS    []float64 `json:"host_us,omitempty"`
	SimUS     []float64 `json:"sim_us,omitempty"`
	SimMBps   float64   `json:"sim_mb_per_s"`
	Events    int64     `json:"events"`
	MaxRSSMB  float64   `json:"max_rss_mb"`
	// EndUS and EndEvents are the last cluster's final virtual time and
	// event count (the NIC half on collectives), for the shard probe.
	EndUS     float64            `json:"end_us"`
	EndEvents int64              `json:"end_events"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// spawn runs one trial of w in mode in a child process of this binary
// and waits for it to exit. A child that crashes or prints no report
// fails every operation of its trial.
func spawn(w *workload, mode string) *childReport {
	attempted := len(w.ops) * len(w.halves())
	if mode == "probe" {
		attempted = len(w.ops)
	}
	fail := func(why string) *childReport {
		return &childReport{Mode: mode, Attempted: attempted, Failed: attempted, Errs: []string{why}}
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err.Error())
	}
	cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(w.seed, 10), "--child", mode)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return fail(fmt.Sprintf("%s trial: %v", mode, err))
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return fail(fmt.Sprintf("%s trial report: %v", mode, err))
	}
	return &rep
}

// tally counts attempted and failed operations over reports and checks
// that each repeats the first report's digest; a trial that does not
// fails all of its operations. Crashed trials have no digest.
func tally(reps []*childReport, notes *[]string) (attempted, failed int) {
	var ref *childReport
	for i, r := range reps {
		attempted += r.Attempted
		failed += r.Failed
		for _, e := range r.Errs {
			*notes = append(*notes, fmt.Sprintf("%s trial %d: %s", r.Mode, i, e))
		}
		if r.Failed > 0 && len(r.Errs) == 0 {
			*notes = append(*notes, fmt.Sprintf("%s trial %d: %d of %d operations failed their check", r.Mode, i, r.Failed, r.Attempted))
		}
		switch {
		case r.Digest == "":
		case ref == nil:
			ref = r
		case r.Digest != ref.Digest:
			failed += r.Attempted - r.Failed
			*notes = append(*notes, fmt.Sprintf("%s trial %d: sim_digest %s differs from the %s trial's %s", r.Mode, i, r.Digest, ref.Mode, ref.Digest))
		}
	}
	return attempted, failed
}

func runEndToEnd(out io.Writer, w *workload, seconds float64) result {
	var reps []*childReport
	start := time.Now()
	for len(reps) < minTrials || time.Since(start).Seconds() < seconds {
		reps = append(reps, spawn(w, "plain"))
	}
	var notes []string
	attempted, failed := tally(reps, &notes)
	perTrial := len(w.ops) * len(w.halves())
	// Host samples pool over trials, so their tail percentile is fixed by
	// the fewest samples a run can have; virtual samples repeat exactly
	// in every trial, so theirs is fixed by one trial's count.
	hostP, _ := tailPercentile(minTrials * perTrial)
	simP, _ := tailPercentile(perTrial)
	var rate, setup, rss, host []float64
	var first *childReport
	for _, r := range reps {
		if len(r.SimUS) == 0 {
			continue // a crashed trial
		}
		if first == nil {
			first = r
		}
		rate = append(rate, r.OpsPerS)
		setup = append(setup, r.SetupS)
		rss = append(rss, r.MaxRSSMB)
		host = append(host, r.HostUS...)
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if first == nil {
		for _, s := range notes {
			fmt.Fprintln(out, "FAIL:", s)
		}
		return res
	}
	vals := map[string]float64{
		"ops_per_s":       median(rate),
		"op_host_us_p50":  percentile(host, 50),
		"op_host_us_tail": percentile(host, hostP),
		"setup_s":         median(setup),
		"peak_rss_mb":     median(rss),
		"sim_op_us_p50":   percentile(first.SimUS, 50),
		"sim_op_us_tail":  percentile(first.SimUS, simP),
		"sim_mb_per_s":    first.SimMBps,
	}
	n := len(rate)
	beyond := func(p float64, count int) int { return count - nearestRank(p, count) }
	samples := map[string]string{
		"ops_per_s":       fmt.Sprintf("%d trials; median of per-trial ops / op-phase host s", n),
		"op_host_us_p50":  fmt.Sprintf("%d ops pooled over %d trials; p50", len(host), n),
		"op_host_us_tail": fmt.Sprintf("%d ops pooled over %d trials; p%g (%d samples beyond)", len(host), n, hostP, beyond(hostP, len(host))),
		"setup_s":         fmt.Sprintf("%d trials x %d cluster(s); median", n, len(w.halves())),
		"peak_rss_mb":     fmt.Sprintf("%d trials; median of each trial process's peak", n),
		"sim_op_us_p50":   fmt.Sprintf("%d ops; p50, identical in every trial", perTrial),
		"sim_op_us_tail":  fmt.Sprintf("%d ops; p%g (%d samples beyond)", perTrial, simP, beyond(simP, perTrial)),
		"sim_mb_per_s":    fmt.Sprintf("%d ops; payload bytes / rank-0 op-phase virtual s", perTrial),
	}
	fmt.Fprintf(out, "qsbench %s seed=%d trials=%d ops/trial=%d ranks=%d GOMAXPROCS=%d NumCPU=%d engine=sequential\n",
		w.name, w.seed, len(reps), perTrial, w.ranks, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(out, "%-16s %14s %-6s %-8s %s\n", "metric", "value", "unit", "clock", "samples")
	for _, d := range endToEnd {
		clock := "host"
		if strings.HasPrefix(d.name, "sim_") {
			clock = "virtual"
		}
		fmt.Fprintf(out, "%-16s %14.4f %-6s %-8s %s\n", d.name, vals[d.name], d.unit, clock, samples[d.name])
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Fprintf(out, "%-16s %14.6f %-6s %-8s %d failed of %d attempted\n", "failed_frac", float64(failed)/float64(attempted), "ratio", "-", failed, attempted)
	fmt.Fprintf(out, "sim_digest=%s events/trial=%d (not a metric: equal for equal seeds)\n", first.Digest, first.Events)
	for _, s := range notes {
		fmt.Fprintln(out, "FAIL:", s)
	}
	res.Correct = failed == 0
	return res
}
