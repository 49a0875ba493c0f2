package experiments

import (
	"fmt"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/libelan"
	"qsmpi/internal/mpi"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
)

// Ablations beyond the paper's figures: sweeps over the design parameters
// DESIGN.md calls out (eager threshold, rail count, queue depth, fabric
// scale, hardware vs software broadcast). Each returns a Result in the
// same format as the figures.

// AblationEagerThreshold sweeps the eager/rendezvous switch point. The
// paper fixes it at 1984 (one QDMA slot minus the header); the sweep shows
// the latency cliff a too-small threshold creates.
func AblationEagerThreshold(cfg Config) *Result {
	thresholds := []int{256, 512, 1024, 1984}
	sizes := []int{512, 1024, 1984}
	var specs []seriesSpec
	for _, th := range thresholds {
		opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
		opts.EagerLimit = th
		specs = append(specs, seriesSpec{
			name:  fmt.Sprintf("eager=%d", th),
			sizes: sizes,
			measure: func(n int) (float64, parsweep.Metrics) {
				return cfg.pingPong(elanSpec(opts, false, pml.Polling), n, cfg.Iters)
			},
		})
	}
	return &Result{
		ID:     "ablate-eager",
		Title:  "Eager threshold vs latency",
		XLabel: "bytes",
		YLabel: "latency us",
		Series: cfg.sweep(specs),
	}
}

// AblationMultirail compares one and two Quadrics rails (the paper's
// future-work item) on large-message bandwidth under the write scheme.
func AblationMultirail(cfg Config) *Result {
	sizes := []int{16384, 65536, 262144, 1048576}
	var specs []seriesSpec
	for _, rails := range []int{1, 2} {
		rails := rails
		specs = append(specs, seriesSpec{
			name:  fmt.Sprintf("%d-rail", rails),
			sizes: sizes,
			measure: func(n int) (float64, parsweep.Metrics) {
				opts := ptlelan4.BestOptions(ptlelan4.RDMAWrite)
				spec := cluster.Spec{Elan: &opts, ElanRails: rails, Progress: pml.Polling}
				lat, m := cfg.pingPong(spec, n, cfg.itersFor(n))
				return toBW(n, lat), m
			},
		})
	}
	return &Result{
		ID:     "ablate-multirail",
		Title:  "Multirail Quadrics bandwidth (RDMA write)",
		XLabel: "bytes",
		YLabel: "MB/s",
		Series: cfg.sweep(specs),
	}
}

// AblationFatTreeScale measures zero-byte and 4 KB latency between the
// most distant nodes as the fat tree grows (1, 2 and 3 switch levels with
// the radix-8 Elite-4 building block).
func AblationFatTreeScale(cfg Config) *Result {
	nodesList := []int{2, 8, 64}
	var specs []seriesSpec
	for _, size := range []int{0, 4096} {
		size := size
		specs = append(specs, seriesSpec{
			name:  fmt.Sprintf("%dB", size),
			sizes: nodesList,
			measure: func(nodes int) (float64, parsweep.Metrics) {
				return farCornerLatency(cfg, nodes, size)
			},
		})
	}
	return &Result{
		ID:     "ablate-fattree",
		Title:  "Fat-tree scale vs far-corner latency",
		XLabel: "nodes",
		YLabel: "latency us",
		Series: cfg.sweep(specs),
	}
}

// farCornerLatency runs a ping-pong between node 0 and node n-1 of an
// n-node cluster.
func farCornerLatency(cfg Config, nodes, size int) (float64, parsweep.Metrics) {
	spec := bestRead(cfg.Shards)
	spec.Nodes = nodes
	r := PingPong{Size: size, Iters: max(cfg.Iters/2, 10), Warmup: cfg.Warmup, Procs: nodes}.OpenMPI(spec)
	return r.LatencyUS, r.Engine
}

// AblationQueueSlots measures QDMA retries as the receive-queue depth
// (QSLOTS) shrinks under an incast burst: 7 senders, one slow receiver.
// One simulation yields both curves, so each depth is one engine job.
func AblationQueueSlots(cfg Config) *Result {
	r := &Result{
		ID:     "ablate-qslots",
		Title:  "Receive-queue depth vs NACK retries (7-to-1 incast)",
		XLabel: "slots",
		YLabel: "retries",
	}
	slotsList := []int{2, 4, 16, 64}
	rows, st := parsweep.Run(cfg.Workers, len(slotsList), func(ctx *parsweep.Ctx, i int) [2]float64 {
		retries, drain, m := incastRetries(slotsList[i])
		ctx.Report(m)
		return [2]float64{float64(retries), drain}
	})
	if cfg.Stats != nil {
		cfg.Stats.Merge(st)
	}
	s := Series{Name: "retries"}
	d := Series{Name: "drain-time-us"}
	for i, slots := range slotsList {
		s.Points = append(s.Points, Point{Size: slots, Value: rows[i][0]})
		d.Points = append(d.Points, Point{Size: slots, Value: rows[i][1]})
	}
	r.Series = append(r.Series, s, d)
	return r
}

func incastRetries(slots int) (int64, float64, parsweep.Metrics) {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	opts.QueueSlots = slots
	const nodes = 8
	const perSender = 16
	spec := cluster.Spec{Elan: &opts, Progress: pml.Polling}
	c := cluster.New(spec, nodes)
	var drainAt simtime.Time
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(512)
		if p.Rank == 0 {
			// Slow receiver: post receives late so the queue backs up.
			p.Th.Proc().Sleep(200 * simtime.Microsecond)
			for src := 1; src < nodes; src++ {
				for i := 0; i < perSender; i++ {
					buf := make([]byte, 512)
					p.Stack.Recv(p.Th, src, i, 0, buf, dt).Wait(p.Th)
				}
			}
			drainAt = p.Th.Now()
			return
		}
		for i := 0; i < perSender; i++ {
			p.Stack.Send(p.Th, 0, i, 0, make([]byte, 512), dt)
		}
		for p.Stack.PendingSends() > 0 {
			p.Stack.Progress(p.Th)
			v := p.Stack.Activity().Value()
			if p.Stack.PendingSends() == 0 {
				break
			}
			p.Stack.Activity().WaitFor(p.Th.Proc(), v+1)
		}
	})
	mustRun(c)
	var retries int64
	for _, nic := range c.NICs {
		retries += nic.Stats().Retries
	}
	return retries, drainAt.Micros(), clusterMetrics(c)
}

// AblationHWBcast compares QsNet hardware broadcast (switch-replicated
// QDMA multicast) against the software binomial-tree broadcast for 1 KB
// payloads across group sizes — the benefit §4.1 says dynamically joined
// processes must forgo.
func AblationHWBcast(cfg Config) *Result {
	nodesList := []int{2, 4, 8, 16}
	series := cfg.sweep([]seriesSpec{
		{"hardware", nodesList, func(nodes int) (float64, parsweep.Metrics) {
			return hwBcastLatency(nodes, 1024)
		}},
		{"software-binomial", nodesList, func(nodes int) (float64, parsweep.Metrics) {
			return swBcastLatency(nodes, 1024)
		}},
	})
	return &Result{
		ID:     "ablate-hwbcast",
		Title:  "Hardware vs software broadcast (1KB)",
		XLabel: "nodes",
		YLabel: "latency us",
		Series: series,
	}
}

// hwBcastLatency measures a root's hardware broadcast until every leaf
// has consumed its copy, using libelan directly (a static, synchronized
// group — the precondition the paper states).
func hwBcastLatency(nodes, size int) (float64, parsweep.Metrics) {
	k, hosts, states := libelanNodes(nodes)
	queues := make([]*libelan.Queue, nodes)
	for i := 1; i < nodes; i++ {
		queues[i] = states[i].NewQueue(1, 8)
	}
	dsts := make([]int, 0, nodes-1)
	for i := 1; i < nodes; i++ {
		dsts = append(dsts, i)
	}
	payload := make([]byte, size)
	var last simtime.Time
	hosts[0].Spawn("root", func(th *simtime.Thread) {
		states[0].BcastQDMA(th, dsts, 1, payload, nil, nil)
	})
	for i := 1; i < nodes; i++ {
		i := i
		hosts[i].Spawn("leaf", func(th *simtime.Thread) {
			queues[i].Recv(th, libelan.Poll)
			if th.Now() > last {
				last = th.Now()
			}
		})
	}
	k.Run()
	return last.Micros(), parsweep.Metrics{SimEvents: k.Steps()}
}

// swBcastLatency measures the binomial-tree mpi.Bcast over the full stack.
func swBcastLatency(nodes, size int) (float64, parsweep.Metrics) {
	opts := ptlelan4.BestOptions(ptlelan4.RDMARead)
	c := cluster.New(cluster.Spec{Elan: &opts, Progress: pml.Polling}, nodes)
	uni := mpi.NewUniverse()
	var last simtime.Time
	var startAt simtime.Time
	c.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, nodes)
		w.Comm().Barrier()
		if p.Rank == 0 {
			startAt = p.Th.Now()
		}
		buf := make([]byte, size)
		w.Comm().Bcast(0, buf, datatype.Contiguous(size))
		if p.Th.Now() > last {
			last = p.Th.Now()
		}
	})
	mustRun(c)
	return (last - startAt).Micros(), clusterMetrics(c)
}

// Ablations runs every ablation.
func Ablations(cfg Config) []*Result {
	return []*Result{
		AblationEagerThreshold(cfg),
		AblationMultirail(cfg),
		AblationFatTreeScale(cfg),
		AblationQueueSlots(cfg),
		AblationHWBcast(cfg),
	}
}
