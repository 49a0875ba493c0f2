// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the series names, workloads and parameter sweeps match
// the paper, and the cmd/elan4bench and cmd/ompibench tools print the same
// rows the figures plot. Absolute microseconds come from the calibrated
// model; the claims reproduced are the relationships between
// configurations (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"strings"

	"qsmpi/internal/bufpool"
	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/elan4"
	"qsmpi/internal/fabric"
	"qsmpi/internal/libelan"
	"qsmpi/internal/model"
	"qsmpi/internal/mpichq"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Warmup iterations before timing starts (the paper uses 100 on real
// hardware; the simulator is deterministic, so a handful suffices to
// populate registration and queue state).
const Warmup = 10

// Point is one (message size, value) sample.
type Point struct {
	Size  int
	Value float64
}

// Series is one labelled curve.
type Series struct {
	Name   string
	Points []Point
}

// Result is one reproduced figure or table panel.
type Result struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// CSV formats the result as comma-separated values for plotting tools:
// a header row of series names, then one row per size.
func (r *Result) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s", s.Name)
	}
	b.WriteByte('\n')
	if len(r.Series) == 0 {
		return b.String()
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(&b, "%d", p.Size)
		for _, s := range r.Series {
			fmt.Fprintf(&b, ",%.4f", s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Render formats the result as an aligned text table, sizes down the rows
// and series across the columns.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "%-10s", r.XLabel)
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %21s", s.Name)
	}
	fmt.Fprintf(&b, "   (%s)\n", r.YLabel)
	if len(r.Series) == 0 {
		return b.String()
	}
	for i, p := range r.Series[0].Points {
		fmt.Fprintf(&b, "%-10d", p.Size)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %21.2f", s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---- measurement harnesses ----

// clusterMetrics aggregates a finished cluster's kernel event count and
// the buffer-pool counters of every component (PML stacks, PTL modules,
// NICs) into sweep-engine metrics.
func clusterMetrics(c *cluster.Cluster) parsweep.Metrics {
	m := parsweep.Metrics{SimEvents: c.K.Steps()}
	addPool := func(s bufpool.Stats) {
		m.PoolGets += s.Gets
		m.PoolHits += s.Hits
		m.PoolPuts += s.Puts
	}
	for _, p := range c.Procs() {
		addPool(p.Stack.PoolStats())
		for _, mod := range p.Elans {
			addPool(mod.PoolStats())
		}
		if p.TCP != nil {
			addPool(p.TCP.PoolStats())
		}
	}
	for _, rail := range c.RailNICs {
		for _, nic := range rail {
			addPool(nic.PoolStats())
		}
	}
	return m
}

// PingPong is the one two-rank ping-pong loop every latency measurement
// runs: after Warmup untimed round trips, rank 0 times Iters round trips
// of Size-byte messages (tag 1 out, tag 2 back) and reports the mean half
// round trip. Observation is an input to the loop, never a copy of it:
// Tracer and Metrics attach a cross-layer recorder and a metrics registry
// to every layer, and LayerTrace attaches a pml.LayerTrace to each rank
// to split off the PML-layer cost (§6.3). A recorder or registry must
// never be shared across concurrently running simulations, so observed
// runs stay sequential; figure sweeps run untraced.
type PingPong struct {
	Size   int
	Iters  int
	Warmup int
	// Procs is the Open MPI cluster size; the ping-pong runs between
	// rank 0 and rank Procs−1 while the others idle. 0 means 2.
	Procs int
	// Type is the Open MPI message datatype; nil means Contiguous(Size).
	// Buffers span the datatype's extent.
	Type       *datatype.Datatype
	Tracer     *trace.Recorder
	Metrics    *obs.Registry
	LayerTrace bool
}

// PingPongResult is one ping-pong run's outcome.
type PingPongResult struct {
	LatencyUS float64          // mean half round trip
	PMLCostUS float64          // mean PML-layer cost per message (LayerTrace only)
	ElapsedUS float64          // virtual time at quiescence, warmup included
	Engine    parsweep.Metrics // kernel events and buffer-pool counters
}

// checkIters rejects an iteration count every harness would divide its
// timed total by.
func checkIters(iters int) {
	if iters < 1 {
		panic(fmt.Sprintf("experiments: iters = %d; a measurement needs at least one timed iteration", iters))
	}
}

// rounds runs one side of the schedule: the pinger sends then receives
// and accumulates the timed round trips into total, the other side
// echoes.
func (pp PingPong) rounds(ping bool, th *simtime.Thread, total *simtime.Duration, send, recv func()) {
	for i := 0; i < pp.Warmup+pp.Iters; i++ {
		start := th.Now()
		if ping {
			send()
			recv()
		} else {
			recv()
			send()
		}
		if ping && i >= pp.Warmup {
			*total += th.Now().Sub(start)
		}
	}
}

// OpenMPI runs the ping-pong over the Open MPI stack a spec describes.
func (pp PingPong) OpenMPI(spec cluster.Spec) PingPongResult {
	checkIters(pp.Iters)
	dt := pp.Type
	if dt == nil {
		dt = datatype.Contiguous(pp.Size)
	}
	if pp.Tracer != nil {
		spec.Tracer = pp.Tracer
	}
	if pp.Metrics != nil {
		spec.Metrics = pp.Metrics
	}
	far := max(pp.Procs, 2) - 1
	c := cluster.New(spec, far+1)
	var total simtime.Duration
	var traces []*pml.LayerTrace
	c.Launch(func(p *cluster.Proc) {
		if p.Rank != 0 && p.Rank != far {
			return
		}
		if pp.LayerTrace {
			p.Stack.Trace = &pml.LayerTrace{}
			traces = append(traces, p.Stack.Trace)
		}
		buf := make([]byte, dt.Extent())
		scratch := make([]byte, dt.Extent())
		peer, tag := far, 1 // rank 0 sends on tag 1 and hears back on tag 2
		if p.Rank == far {
			peer, tag = 0, 2
		}
		pp.rounds(p.Rank == 0, p.Th, &total,
			func() { p.Stack.Send(p.Th, peer, tag, 0, buf, dt).Wait(p.Th) },
			func() { p.Stack.Recv(p.Th, peer, 3-tag, 0, scratch, dt).Wait(p.Th) })
	})
	mustRun(c)
	res := PingPongResult{
		LatencyUS: total.Micros() / float64(pp.Iters) / 2,
		ElapsedUS: c.Now().Micros(),
		Engine:    clusterMetrics(c),
	}
	var n int
	for _, tr := range traces {
		if tr.Count > 0 {
			res.PMLCostUS += tr.Mean()
			n++
		}
	}
	if n > 0 {
		res.PMLCostUS /= float64(n)
	}
	return res
}

// Tport runs the ping-pong over the MPICH-QsNetII baseline stack; Type
// and LayerTrace do not apply to it.
func (pp PingPong) Tport() PingPongResult {
	checkIters(pp.Iters)
	j := mpichq.NewJob(2, nil)
	if pp.Tracer != nil {
		j.SetTracer(pp.Tracer)
	}
	if pp.Metrics != nil {
		j.RegisterMetrics(pp.Metrics)
	}
	var total simtime.Duration
	j.Launch(func(rank int, th *simtime.Thread, c *mpichq.Comm) {
		buf := make([]byte, pp.Size)
		scratch := make([]byte, pp.Size)
		peer := 1 - rank
		pp.rounds(rank == 0, th, &total,
			func() { c.Send(th, peer, 1+rank, buf) },
			func() { c.Recv(th, peer, 2-rank, scratch) })
	})
	if err := j.Run(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return PingPongResult{
		LatencyUS: total.Micros() / float64(pp.Iters) / 2,
		ElapsedUS: j.K.Now().Micros(),
		Engine:    parsweep.Metrics{SimEvents: j.K.Steps()},
	}
}

// pingPong is the sweep-side form of PingPong.OpenMPI: untraced, with
// the config's warmup and shard count.
func (c Config) pingPong(spec cluster.Spec, size, iters int) (float64, parsweep.Metrics) {
	spec.Shards = c.Shards
	r := PingPong{Size: size, Iters: iters, Warmup: c.Warmup}.OpenMPI(spec)
	return r.LatencyUS, r.Engine
}

// tport is the sweep-side form of PingPong.Tport.
func (c Config) tport(size, iters int) (float64, parsweep.Metrics) {
	r := PingPong{Size: size, Iters: iters, Warmup: c.Warmup}.Tport()
	return r.LatencyUS, r.Engine
}

// mustRun runs a cluster to quiescence; a deadlock is a harness bug.
func mustRun(c *cluster.Cluster) {
	if err := c.Run(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
}

// qdmaPingPong measures native Quadrics QDMA half-round-trip latency (µs):
// the Fig. 9 baseline the PTL is compared against.
func qdmaPingPong(size, iters, warmup int) (float64, parsweep.Metrics) {
	checkIters(iters)
	if size > model.Default().QDMAMaxPayload {
		panic("experiments: QDMA size above hardware limit")
	}
	k, hosts, states := libelanNodes(2)
	pp := PingPong{Size: size, Iters: iters, Warmup: warmup}
	payload := make([]byte, size)
	var total simtime.Duration
	for i, name := range []string{"ping", "pong"} {
		q := states[i].NewQueue(1, 64)
		hosts[i].Spawn(name, func(th *simtime.Thread) {
			pp.rounds(i == 0, th, &total,
				func() { states[i].QDMA(th, 1-i, 1, payload, nil, nil) },
				func() { q.Recv(th, libelan.Poll) })
		})
	}
	k.Run()
	return total.Micros() / float64(iters) / 2, parsweep.Metrics{SimEvents: k.Steps()}
}

// libelanNodes builds n hosts on one fat tree, each with an Elan4 NIC
// whose context 0 holds VPID i, attached to libelan: the raw substrate
// the native-QDMA and hardware-broadcast baselines run on, below any
// MPI stack.
func libelanNodes(n int) (*simtime.Kernel, []*simtime.Host, []*libelan.State) {
	cfg := model.Default()
	k := simtime.NewKernel()
	net := fabric.New(k, fabric.Params{
		LinkBandwidth: cfg.LinkBandwidth, WireLatency: cfg.WireLatency,
		SwitchLatency: cfg.SwitchLatency, MTU: cfg.MTU,
		PacketOverhead: cfg.PacketOverhead, Arity: cfg.FatTreeRadix,
	}, n)
	res := staticResolver{}
	var hosts []*simtime.Host
	var states []*libelan.State
	for i := 0; i < n; i++ {
		h := simtime.NewHost(k, fmt.Sprintf("n%d", i), cfg.HostCPUs)
		ctx := elan4.NewNIC(k, h, net, i, cfg, res).OpenContext(0)
		ctx.SetVPID(i)
		res[i] = [2]int{i, 0}
		hosts = append(hosts, h)
		states = append(states, libelan.Attach(ctx, cfg))
	}
	return k, hosts, states
}

type staticResolver map[int][2]int

func (r staticResolver) Resolve(v int) (int, int, bool) {
	e, ok := r[v]
	return e[0], e[1], ok
}

// ---- configuration builders ----

func elanSpec(opts ptlelan4.Options, dtp bool, progress pml.ProgressMode) cluster.Spec {
	return cluster.Spec{Elan: &opts, DTP: dtp, Progress: progress}
}

// bestRead is the spec most scenarios share: the paper's best RDMA-read
// options under polling progress.
func bestRead(shards int) cluster.Spec {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	return cluster.Spec{Elan: &opts, Progress: pml.Polling, Shards: shards}
}

// base returns the Fig. 7 baseline for a scheme: inlined rendezvous data,
// chained completion, no shared CQ, memcpy datatype path.
func base(scheme ptlelan4.Scheme) ptlelan4.Options {
	o := ptlelan4.BestOptions(scheme)
	o.InlineRndv = true
	return o
}
