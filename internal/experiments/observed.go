package experiments

import (
	"qsmpi/internal/cluster"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/trace"
)

// FigureMetric is the metrics table of one representative instrumented
// point of a figure: the sweep itself runs untraced (figure numbers stay
// byte-identical), and this names the configuration that was rerun with a
// registry attached.
type FigureMetric struct {
	ID   string // figure the point represents
	Note string // configuration and size of the representative point
	Snap obs.Snapshot
}

// figureMetricIters keeps the instrumented reruns cheap: the counters they
// feed are protocol-shape metrics (eager vs rendezvous, DMA mix, packet
// counts), which a handful of iterations already exhibits.
const figureMetricIters = 4

// figurePoint is one figure's representative point: a ping-pong rerun
// sequentially with a recorder and a metrics registry attached.
type figurePoint struct {
	id, note string
	spec     *cluster.Spec // nil: the MPICH-QsNetII baseline
	size     int
}

// figurePoints lists the representative points in paper order.
func figurePoints() []figurePoint {
	spec := func(o ptlelan4.Options, progress pml.ProgressMode) *cluster.Spec {
		s := elanSpec(o, false, progress)
		return &s
	}
	best := ptlelan4.BestOptions(ptlelan4.RDMARead)
	noChain := best
	noChain.ChainFin = false
	oneThread := best
	oneThread.CQ = ptlelan4.OneQueue
	oneThread.Threads = 1
	return []figurePoint{
		{"fig7a", "RDMA-Read, 256 B (eager path)", spec(base(ptlelan4.RDMARead), pml.Polling), 256},
		{"fig7b", "RDMA-Write, 4 KiB (rendezvous)", spec(base(ptlelan4.RDMAWrite), pml.Polling), 4096},
		{"fig8", "Read-NoChain, 4 KiB", spec(noChain, pml.Polling), 4096},
		{"fig9", "RDMA-Read best options, 1984 B (eager limit)", spec(best, pml.Polling), 1984},
		{"table1", "One progress thread, 4 KiB", spec(oneThread, pml.Threaded), 4096},
		{"fig10", "MPICH-QsNetII baseline, 4 KiB", nil, 4096},
		{"fig10", "PTL/Elan4-RDMA-Read, 64 KiB", spec(best, pml.Polling), 65536},
	}
}

// observe reruns the point with a recorder (ring bound limit; 0 keeps
// every event) and a metrics registry attached.
func (pt figurePoint) observe(limit int) (*trace.Recorder, obs.Snapshot) {
	rec, reg := trace.NewRecorder(limit), obs.New()
	pp := PingPong{Size: pt.size, Iters: figureMetricIters, Warmup: 2, Tracer: rec, Metrics: reg}
	if pt.spec == nil {
		pp.Tport()
	} else {
		pp.OpenMPI(*pt.spec)
	}
	return rec, reg.Snapshot()
}

// FigureMetrics reruns one representative point per figure with a metrics
// registry attached and returns the snapshots in paper order. Sequential
// by design — see PingPong.
func FigureMetrics(cfg Config) []FigureMetric {
	var out []FigureMetric
	for _, pt := range figurePoints() {
		_, snap := pt.observe(1)
		out = append(out, FigureMetric{pt.id, pt.note, snap})
	}
	_, snap := observedOverlap("two-threads", 16384, figureMetricIters, 2, 1)
	return append(out, FigureMetric{"overlap", "Two progress threads, NBC workload, 16 KiB", snap})
}

// FigureBreakdown is the critical-path phase decomposition of one
// representative instrumented point of a figure (see FigureMetric for the
// sequential-rerun rationale).
type FigureBreakdown struct {
	ID      string // figure the point represents
	Note    string // configuration and size of the representative point
	Profile obs.Profile
}

// FigureBreakdowns reruns one representative point per figure with a
// tracer attached and profiles the event stream: per-path phase
// decomposition, per-peer flows and the critical path. Sequential by
// design and fully deterministic — the rendered tables are byte-identical
// across runs.
func FigureBreakdowns(cfg Config) []FigureBreakdown {
	var out []FigureBreakdown
	for _, pt := range figurePoints() {
		rec, _ := pt.observe(0)
		out = append(out, FigureBreakdown{pt.id, pt.note, obs.Analyze(rec.Events())})
	}
	return out
}
