package experiments

import (
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// Sweep sizes matching the figures' x-axes. These are canonical defaults
// passed by value into the generators; they are never mutated (a sweep
// that wants different sizes passes its own slice).
var (
	// Fig7SmallSizes: panel (a), very small messages.
	Fig7SmallSizes = []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	// Fig7LargeSizes: panel (b), around the 1984-byte eager threshold.
	Fig7LargeSizes = []int{512, 1024, 2048, 4096}
	// Fig8Sizes: chained-DMA / completion-queue sweep.
	Fig8Sizes = []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	// Fig9Sizes: layering analysis, up to the eager threshold.
	Fig9Sizes = []int{0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1984}
	// Fig10SmallSizes / Fig10LargeSizes: overall comparison.
	Fig10SmallSizes = []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	Fig10LargeSizes = []int{2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576}
)

// Fig7 reproduces "Performance Analysis of Basic RDMA Read and Write":
// the six series over the two panels' size ranges.
func Fig7(cfg Config, sizes []int, panel string) *Result {
	mk := func(opts ptlelan4.Options, dtp bool) pointFn {
		return func(n int) (float64, parsweep.Metrics) {
			return cfg.pingPong(elanSpec(opts, dtp, pml.Polling), n, cfg.Iters)
		}
	}
	read := base(ptlelan4.RDMARead)
	readNoInline := ptlelan4.BestOptions(ptlelan4.RDMARead)
	write := base(ptlelan4.RDMAWrite)
	writeNoInline := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
	return &Result{
		ID:     "fig7" + panel,
		Title:  "Performance Analysis of Basic RDMA Read and Write (" + panel + ")",
		XLabel: "bytes",
		YLabel: "latency us",
		Series: cfg.sweep([]seriesSpec{
			{"RDMA-Read", sizes, mk(read, false)},
			{"Read-NoInline", sizes, mk(readNoInline, false)},
			{"Read-DTP", sizes, mk(read, true)},
			{"RDMA-Write", sizes, mk(write, false)},
			{"Write-NoInline", sizes, mk(writeNoInline, false)},
			{"Write-DTP", sizes, mk(write, true)},
		}),
	}
}

// Fig8 reproduces "Performance Analysis with Chained DMA and Shared
// Completion Queue" (RDMA read based, per §6.2).
func Fig8(cfg Config, sizes []int) *Result {
	mk := func(opts ptlelan4.Options) pointFn {
		return func(n int) (float64, parsweep.Metrics) {
			return cfg.pingPong(elanSpec(opts, false, pml.Polling), n, cfg.Iters)
		}
	}
	chained := ptlelan4.BestOptions(ptlelan4.RDMARead)
	noChain := chained
	noChain.ChainFin = false
	oneQ := chained
	oneQ.CQ = ptlelan4.OneQueue
	twoQ := chained
	twoQ.CQ = ptlelan4.TwoQueue
	return &Result{
		ID:     "fig8",
		Title:  "Chained DMA and Shared Completion Queue",
		XLabel: "bytes",
		YLabel: "latency us",
		Series: cfg.sweep([]seriesSpec{
			{"RDMA-Read", sizes, mk(chained)},
			{"Read-NoChain", sizes, mk(noChain)},
			{"One-Queue", sizes, mk(oneQ)},
			{"Two-Queue", sizes, mk(twoQ)},
		}),
	}
}

// Fig9 reproduces "Analysis of Communication Overhead in Different
// Layers": native QDMA latency, the PTL-layer latency and the PML-layer
// cost, all per half round trip. The layered measurements produce two
// curves from one simulation, so each size is one job returning both.
func Fig9(cfg Config, sizes []int) *Result {
	spec := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling)
	spec.Shards = cfg.Shards
	qdma := cfg.sweep([]seriesSpec{
		{"QDMA latency", sizes, func(n int) (float64, parsweep.Metrics) {
			return qdmaPingPong(n, cfg.Iters, cfg.Warmup)
		}},
	})[0]
	layered, st := parsweep.Run(cfg.Workers, len(sizes), func(ctx *parsweep.Ctx, i int) [2]float64 {
		r := PingPong{Size: sizes[i], Iters: cfg.Iters, Warmup: cfg.Warmup, LayerTrace: true}.OpenMPI(spec)
		ctx.Report(r.Engine)
		return [2]float64{r.LatencyUS, r.PMLCostUS}
	})
	if cfg.Stats != nil {
		cfg.Stats.Merge(st)
	}
	ptlLat := Series{Name: "PTL Latency"}
	pmlCost := Series{Name: "PML Layer Cost"}
	for i, n := range sizes {
		total, pmlc := layered[i][0], layered[i][1]
		ptlLat.Points = append(ptlLat.Points, Point{Size: n, Value: total - pmlc})
		pmlCost.Points = append(pmlCost.Points, Point{Size: n, Value: pmlc})
	}
	return &Result{
		ID:     "fig9",
		Title:  "Communication Overhead in Different Layers",
		XLabel: "bytes",
		YLabel: "latency us",
		Series: []Series{qdma, ptlLat, pmlCost},
	}
}

// Table1 reproduces "Performance Analysis of Thread-Based Asynchronous
// Progress": Basic / Interrupt / One Thread / Two Threads at 4 B and
// 4 KB over the RDMA-read scheme.
func Table1(cfg Config) *Result {
	basic := func(n int) (float64, parsweep.Metrics) {
		return cfg.pingPong(elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling), n, cfg.Iters)
	}
	interrupt := func(n int) (float64, parsweep.Metrics) {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		o.CQ = ptlelan4.OneQueue
		return cfg.pingPong(elanSpec(o, false, pml.InterruptWait), n, cfg.Iters)
	}
	oneThread := func(n int) (float64, parsweep.Metrics) {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		o.CQ = ptlelan4.OneQueue
		o.Threads = 1
		return cfg.pingPong(elanSpec(o, false, pml.Threaded), n, cfg.Iters)
	}
	twoThreads := func(n int) (float64, parsweep.Metrics) {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		o.CQ = ptlelan4.TwoQueue
		o.Threads = 2
		return cfg.pingPong(elanSpec(o, false, pml.Threaded), n, cfg.Iters)
	}
	sizes := []int{4, 4096}
	return &Result{
		ID:     "table1",
		Title:  "Thread-Based Asynchronous Progress (RDMA-Read)",
		XLabel: "bytes",
		YLabel: "latency us",
		Series: cfg.sweep([]seriesSpec{
			{"Basic", sizes, basic},
			{"Interrupt", sizes, interrupt},
			{"One Thread", sizes, oneThread},
			{"Two Threads", sizes, twoThreads},
		}),
	}
}

// Fig10 reproduces "Overall Performance of Open MPI over Quadrics/Elan4":
// latency and bandwidth versus MPICH-QsNetII, small and large panels. The
// best PTL options of §6.5 are used: chained completion, polling without a
// shared completion queue, rendezvous without inlined data.
func Fig10(cfg Config, sizes []int, panel string, bandwidth bool) *Result {
	mpich := func(n int) (float64, parsweep.Metrics) {
		l, m := cfg.tport(n, cfg.itersFor(n))
		if bandwidth {
			return toBW(n, l), m
		}
		return l, m
	}
	openmpi := func(scheme ptlelan4.Scheme) pointFn {
		return func(n int) (float64, parsweep.Metrics) {
			l, m := cfg.pingPong(elanSpec(ptlelan4.BestOptions(scheme), false, pml.Polling), n, cfg.itersFor(n))
			if bandwidth {
				return toBW(n, l), m
			}
			return l, m
		}
	}
	metric := "latency us"
	if bandwidth {
		metric = "MB/s"
	}
	return &Result{
		ID:     "fig10" + panel,
		Title:  "Open MPI over Quadrics/Elan4 vs MPICH-QsNetII (" + panel + ")",
		XLabel: "bytes",
		YLabel: metric,
		Series: cfg.sweep([]seriesSpec{
			{"MPICH-QsNetII", sizes, mpich},
			{"PTL/Elan4-RDMA-Read", sizes, openmpi(ptlelan4.RDMARead)},
			{"PTL/Elan4-RDMA-Write", sizes, openmpi(ptlelan4.RDMAWrite)},
		}),
	}
}

// toBW converts a half-round-trip latency (µs) into MB/s.
func toBW(n int, halfRTus float64) float64 {
	if halfRTus <= 0 {
		return 0
	}
	return float64(n) / halfRTus // bytes/µs == MB/s
}

// All regenerates every figure and table in paper order.
func All(cfg Config) []*Result {
	return []*Result{
		Fig7(cfg, Fig7SmallSizes, "a"),
		Fig7(cfg, Fig7LargeSizes, "b"),
		Fig8(cfg, Fig8Sizes),
		Fig9(cfg, Fig9Sizes),
		Table1(cfg),
		Fig10(cfg, Fig10SmallSizes, "a-latency", false),
		Fig10(cfg, Fig10LargeSizes, "b-latency", false),
		Fig10(cfg, Fig10SmallSizes, "c-bandwidth", true),
		Fig10(cfg, Fig10LargeSizes, "d-bandwidth", true),
	}
}
