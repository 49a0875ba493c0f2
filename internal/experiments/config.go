package experiments

import "qsmpi/internal/parsweep"

// Config carries every sweep parameter that used to live in mutable
// package globals. A Config is passed explicitly through the figure,
// table, claim and ablation generators so that two sweeps can run
// concurrently without sharing any state: the old package-level Iters
// variable was a data race the moment two kernels ran at once.
type Config struct {
	// Iters is the timing iteration count per measured point.
	Iters int
	// Warmup is the untimed iteration count before measurement starts.
	Warmup int
	// Workers bounds the parallel sweep engine's pool; values below 1
	// mean one worker per core (GOMAXPROCS). Results are byte-identical
	// at any setting — see internal/parsweep.
	Workers int
	// Stats, when non-nil, accumulates sweep-engine counters (per-worker
	// jobs, sim-events, wall time, pool hit-rates) across every sweep
	// run under this config.
	Stats *parsweep.Stats
	// Shards is the worker-shard count each measurement cluster runs with
	// (see cluster.Spec.Shards); 0 or 1 keeps the classic sequential
	// kernel. The report workloads are contention-tie-free, so their
	// output is byte-identical at every shard count.
	Shards int
}

// DefaultConfig mirrors the historical defaults: 100 timed iterations,
// 10 warmup rounds, one worker per core.
func DefaultConfig() Config {
	return Config{Iters: 100, Warmup: Warmup}
}

// WithIters returns a copy of c with the iteration count replaced; it
// panics below one timed iteration.
func (c Config) WithIters(iters int) Config {
	checkIters(iters)
	c.Iters = iters
	return c
}

// itersFor shrinks iteration counts for big-message sweeps to keep
// event counts reasonable.
func (c Config) itersFor(size int) int {
	switch {
	case size >= 1<<19:
		return 20
	case size >= 1<<16:
		return 40
	default:
		return c.Iters
	}
}

// pointFn measures one (size) sample and reports the simulation's
// engine metrics alongside the value.
type pointFn func(size int) (float64, parsweep.Metrics)

// seriesSpec declares one curve of a figure: its label, x values, and
// the measurement closure each point runs as an independent job.
type seriesSpec struct {
	name    string
	sizes   []int
	measure pointFn
}

// sweep runs every (series, size) point of the specs through the
// parallel engine and assembles the curves. The points are flattened
// into a job list in (series, size) order and each job writes only its
// own slot, so the assembled output is byte-identical to sequential
// nested loops at any worker count.
func (c Config) sweep(specs []seriesSpec) []Series {
	type job struct {
		size    int
		measure pointFn
	}
	var flat []job
	for _, sp := range specs {
		for _, n := range sp.sizes {
			flat = append(flat, job{size: n, measure: sp.measure})
		}
	}
	vals, st := parsweep.Run(c.Workers, len(flat), func(ctx *parsweep.Ctx, j int) float64 {
		v, m := flat[j].measure(flat[j].size)
		ctx.Report(m)
		return v
	})
	if c.Stats != nil {
		c.Stats.Merge(st)
	}
	out := make([]Series, len(specs))
	j := 0
	for si, sp := range specs {
		out[si].Name = sp.name
		for _, n := range sp.sizes {
			out[si].Points = append(out[si].Points, Point{Size: n, Value: vals[j]})
			j++
		}
	}
	return out
}

// measurer batches independent scalar measurements so they fan out over
// the worker pool together: add() registers a closure and returns a
// slot pointer that run() fills. Claims uses it to keep its verdict
// assembly sequential and readable while the expensive simulations
// underneath run in parallel.
type measurer struct {
	cfg   Config
	jobs  []func() (float64, parsweep.Metrics)
	slots []*float64
}

func newMeasurer(cfg Config) *measurer { return &measurer{cfg: cfg} }

// add registers one measurement and returns the slot that will hold its
// value after run().
func (m *measurer) add(fn func() (float64, parsweep.Metrics)) *float64 {
	v := new(float64)
	m.jobs = append(m.jobs, fn)
	m.slots = append(m.slots, v)
	return v
}

// run executes every registered measurement through the engine.
func (m *measurer) run() {
	jobs := m.jobs
	vals, st := parsweep.Run(m.cfg.Workers, len(jobs), func(ctx *parsweep.Ctx, i int) float64 {
		v, met := jobs[i]()
		ctx.Report(met)
		return v
	})
	for i, v := range vals {
		*m.slots[i] = v
	}
	if m.cfg.Stats != nil {
		m.cfg.Stats.Merge(st)
	}
}
