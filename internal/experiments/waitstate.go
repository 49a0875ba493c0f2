package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Wait-state scenarios (DESIGN.md §8.4): seeded runs whose wait
// structure is known by construction, so the attribution analyzer can
// be exercised end-to-end — a deliberately late sender, a deliberately
// late receiver (unexpected arrival), and staggered-compute barriers on
// the host software tree vs. the NIC combine tree. Everything here is
// deterministic at any shard count: the reports are byte-diffed across
// -shards settings by TestScenarioIdentity.

// waitRun is one seeded run: its recorded event stream and the kernel
// event count it took.
type waitRun struct {
	events []trace.Event
	steps  int64
}

// lateSenderSkew is how much compute the tardy side performs before
// touching the network in the seeded point-to-point scenarios.
const lateSenderSkew = 40 * simtime.Microsecond

// tracedRun runs body on an n-rank cluster with a fresh unbounded
// recorder attached as the spec's tracer.
func tracedRun(spec cluster.Spec, n int, body func(p *cluster.Proc)) waitRun {
	rec := trace.NewRecorder(0)
	spec.Tracer = rec
	c := cluster.New(spec, n)
	c.Launch(body)
	mustRun(c)
	return waitRun{rec.Events(), c.K.Steps()}
}

// lateSender seeds the late-sender case: rank 1 posts its receive
// immediately, rank 0 computes for lateSenderSkew first. The analyzer
// must charge rank 1 with a late-sender wait of at least the skew.
func lateSender(shards int) waitRun {
	return tracedRun(bestRead(shards), 2, func(p *cluster.Proc) {
		dt := datatype.Contiguous(256)
		buf := make([]byte, 256)
		if p.Rank == 0 {
			p.Th.Compute(lateSenderSkew)
			p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
		}
	})
}

// lateReceiver seeds the late-receiver case: rank 0 sends an eager
// tag-1 message immediately, but rank 1 is blocked in a receive of a
// different message (tag 2, which rank 0 only sends after
// lateSenderSkew of compute) — so its progress engine drains the tag-1
// arrival into the unexpected queue, where it sits until the tag-1
// receive is finally posted. The analyzer must charge rank 0 with a
// late-receiver wait on the tag-1 message.
func lateReceiver(shards int) waitRun {
	return tracedRun(bestRead(shards), 2, func(p *cluster.Proc) {
		dt := datatype.Contiguous(256)
		buf := make([]byte, 256)
		buf2 := make([]byte, 256)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 1, 0, buf, dt).Wait(p.Th)
			p.Th.Compute(lateSenderSkew)
			p.Stack.Send(p.Th, 1, 2, 0, buf2, dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, 0, 2, 0, buf2, dt).Wait(p.Th)
			p.Stack.Recv(p.Th, 0, 1, 0, buf, dt).Wait(p.Th)
		}
	})
}

// barrierSkew seeds the wait-at-barrier case at n ranks: each rank
// computes rank×10 µs before entering each of iters barriers, so rank
// n−1 is always last in and every earlier rank's arrival skew is known
// by construction. nic selects the NIC combine tree (full connectivity,
// SetHWColl) against the host dissemination barrier.
func barrierSkew(n, iters int, nic bool, shards int) waitRun {
	spec := bestRead(shards)
	spec.HWColl = nic
	uni := mpi.NewUniverse()
	return tracedRun(spec, n, func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n)
		if nic {
			w.SetHWColl(p.Elan)
		}
		comm := w.Comm()
		for i := 0; i < iters; i++ {
			p.Th.Compute(simtime.Duration(p.Rank) * 10 * simtime.Microsecond)
			comm.Barrier()
		}
	})
}

// WaitStateReport renders the full wait-state attribution report over
// every seeded scenario (a late sender, a late receiver, and staggered
// barriers on the host and NIC trees): the taxonomy summary, per-rank and
// per-pair aggregations, collective epochs and arrival-skew histograms
// per scenario. Byte-identical at any shard count.
func WaitStateReport(shards int) Outcome {
	var out Outcome
	for i, sc := range []struct {
		name string
		run  waitRun
	}{
		{"late-sender (rank 0 computes 40us before send)", lateSender(shards)},
		{"late-receiver (rank 1 posts 40us after eager arrival)", lateReceiver(shards)},
		{"barrier skew, host tree (4 ranks, rank*10us stagger)", barrierSkew(4, 3, false, shards)},
		{"barrier skew, NIC tree (4 ranks, rank*10us stagger)", barrierSkew(4, 3, true, shards)},
	} {
		if i > 0 {
			out.Text += "\n"
		}
		out.Text += fmt.Sprintf("== %s ==\n%s", sc.name, obs.AnalyzeWaits(sc.run.events).Render())
		out.Events += sc.run.steps
	}
	return out
}

// samplerPeriod keeps the seeded sampler runs dense enough for visible
// heatmaps at small scale without swamping the recorder.
const samplerPeriod = 5 * simtime.Microsecond

// sampledRun runs an instrumented n-rank workload — a ping-pong chain
// overlapped with allreduce epochs, enough traffic to move every gauge
// — and returns the recorded stream and the finished cluster. With
// sample set, the virtual-time sampler is attached and returned too;
// without it the run is the baseline for perturbation checks and
// overhead benchmarks.
func sampledRun(n, iters, shards int, sample bool) (*obs.Sampler, *trace.Recorder, *cluster.Cluster) {
	rec := trace.NewRecorder(0)
	var smp *obs.Sampler
	spec := bestRead(shards)
	spec.Tracer = rec
	if sample {
		smp = obs.NewSampler(samplerPeriod, 0)
		spec.Sampler = smp
	}
	c := cluster.New(spec, n)
	uni := mpi.NewUniverse()
	c.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n)
		comm := w.Comm()
		dt := datatype.Contiguous(4096)
		buf := make([]byte, 4096)
		acc := make([]byte, 8)
		out := make([]byte, 8)
		next := (p.Rank + 1) % n
		prev := (p.Rank - 1 + n) % n
		for i := 0; i < iters; i++ {
			p.Th.Compute(simtime.Duration(p.Rank%3) * 2 * simtime.Microsecond)
			if p.Rank%2 == 0 {
				p.Stack.Send(p.Th, next, 7, 0, buf, dt).Wait(p.Th)
				p.Stack.Recv(p.Th, prev, 7, 0, buf, dt).Wait(p.Th)
			} else {
				p.Stack.Recv(p.Th, prev, 7, 0, buf, dt).Wait(p.Th)
				p.Stack.Send(p.Th, next, 7, 0, buf, dt).Wait(p.Th)
			}
			binary.LittleEndian.PutUint64(acc, math.Float64bits(float64(p.Rank+i)))
			comm.Allreduce(acc, out, mpi.OpSumF64)
		}
	})
	mustRun(c)
	return smp, rec, c
}

// HeatmapReport renders the rank×time and link×time heatmaps of one
// seeded sampled run: progress duty, receive-queue depth and pending
// sends per rank, and per-interval uplink bytes per link. Deterministic
// and byte-identical at any shard count.
func HeatmapReport(n, iters, shards, maxCols int) Outcome {
	smp, _, c := sampledRun(n, iters, shards, true)
	var b strings.Builder
	fmt.Fprintf(&b, "sampler: period %s, %d ticks\n", smp.Period(), smp.Ticks())
	b.WriteString(smp.RankMatrix(obs.GaugeDuty).Heatmap(maxCols))
	b.WriteString(smp.RankMatrix(obs.GaugeRecvQDepth).Heatmap(maxCols))
	b.WriteString(smp.RankMatrix(obs.GaugePendingSends).Heatmap(maxCols))
	b.WriteString(smp.LinkMatrix(obs.LinkGaugeBytes).Deltas().Heatmap(maxCols))
	return Outcome{SimUS: c.Now().Micros(), Events: c.K.Steps(), Text: b.String()}
}
