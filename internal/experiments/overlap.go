package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// Compute/communication overlap and progress availability (ROADMAP
// item 3), following the OpenHPCA/Sandia overlap methodology: measure
// the pure communication time c of a nonblocking operation (post +
// immediate Wait), then re-run the same operation with an inserted
// compute block of w = c virtual microseconds between post and Wait and
// call the elapsed time o. A transport that makes full asynchronous
// progress hides the communication under the compute (o ≈ c + w −
// min(c, w) = w), one that only progresses inside Wait serialises them
// (o ≈ c + w). The overlap ratio
//
//	overlap = clamp((c + w − o) / c, 0, 1)        (w = c)
//
// is therefore 1 for perfect overlap and 0 for none. The sender side
// (Isend) is the classic overlap figure; the receiver side (Irecv) is
// the progress-availability figure — it exposes whether anything
// retires an arriving rendezvous while the host computes.

// overlapModes are the progress configurations the overlap figures
// sweep, matching Table 1's rows: polling with per-endpoint queues,
// interrupt-driven waits on a shared event queue, and one or two
// asynchronous progress threads.
var overlapModes = []string{"basic", "interrupt", "one-thread", "two-threads"}

// overlapSizes are the x values of the overlap curves (0 B – 64 KB,
// spanning the eager/rendezvous switch at the default 1984-byte limit).
var overlapSizes = []int{0, 1024, 4096, 16384, 65536}

// thresholdSizes restricts the eager-vs-rendezvous figure to the sizes
// where the protocol choice is in play.
var thresholdSizes = []int{1024, 4096, 16384, 65536}

// overlapRndvEager is the EagerLimit override that forces the rendezvous
// protocol for every size the threshold figure measures.
const overlapRndvEager = 64

// overlapSpec builds the 2-rank cluster spec for one progress mode.
// eager = 0 keeps the module's default eager limit.
func overlapSpec(mode string, eager, shards int) cluster.Spec {
	o := ptlelan4.BestOptions(ptlelan4.RDMARead)
	progress := pml.Polling
	switch mode {
	case "interrupt":
		o.CQ = ptlelan4.OneQueue
		progress = pml.InterruptWait
	case "one-thread":
		o.CQ = ptlelan4.OneQueue
		o.Threads = 1
		progress = pml.Threaded
	case "two-threads":
		o.CQ = ptlelan4.TwoQueue
		o.Threads = 2
		progress = pml.Threaded
	}
	o.EagerLimit = eager
	return cluster.Spec{Elan: &o, Progress: progress, Shards: shards}
}

// overlapRatio measures one overlap point: rank 0 first times the
// nonblocking operation with an immediate Wait (phase A → c), then with
// a Compute(c) block between post and Wait (phase B → o), and the ratio
// above is returned. Rank 1 runs the identical peer loop in both
// phases, so the two phases see the same protocol behaviour. The timed
// region covers only post…Wait; the per-iteration control exchange that
// keeps the ranks in lockstep sits outside it. The finished cluster is
// returned alongside for its event count and elapsed virtual time.
func (c Config) overlapRatio(mode string, eager int, recvSide bool, size int) (float64, *cluster.Cluster) {
	iters := c.itersFor(size)
	checkIters(iters)
	warmup := c.Warmup
	spec := overlapSpec(mode, eager, c.Shards)
	cl := cluster.New(spec, 2)
	uni := mpi.NewUniverse()
	var base, over simtime.Duration
	cl.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, 2)
		comm := w.Comm()
		buf := make([]byte, size)
		dt := datatype.Contiguous(size)
		empty := datatype.Contiguous(0)
		const dataTag, ctlTag = 7, 8
		if p.Rank == 0 {
			iter := func(compute simtime.Duration) simtime.Duration {
				start := p.Th.Now()
				if recvSide {
					rq := comm.Irecv(1, dataTag, buf, dt)
					// Ready handshake: the peer sends only into a posted
					// receive, so phase B genuinely overlaps an arrival.
					comm.Send(1, ctlTag, nil, empty)
					if compute > 0 {
						p.Th.Compute(compute)
					}
					rq.Wait()
					return p.Th.Now().Sub(start)
				}
				sq := comm.Isend(1, dataTag, buf, dt)
				if compute > 0 {
					p.Th.Compute(compute)
				}
				sq.Wait()
				elapsed := p.Th.Now().Sub(start)
				// Untimed drain ack: the next iteration starts clean.
				comm.Recv(1, ctlTag, nil, empty)
				return elapsed
			}
			for i := 0; i < warmup; i++ {
				iter(0)
			}
			for i := 0; i < iters; i++ {
				base += iter(0)
			}
			w := base / simtime.Duration(iters)
			for i := 0; i < iters; i++ {
				over += iter(w)
			}
		} else {
			peer := func() {
				if recvSide {
					comm.Recv(0, ctlTag, nil, empty)
					comm.Send(0, dataTag, buf, dt)
					return
				}
				comm.Recv(0, dataTag, buf, dt)
				comm.Send(0, ctlTag, nil, empty)
			}
			for i := 0; i < warmup+2*iters; i++ {
				peer()
			}
		}
	})
	mustRun(cl)
	cc := base.Micros() / float64(iters)
	o := over.Micros() / float64(iters)
	ratio := 1.0
	if cc > 0 {
		// w = c, so (c + w − o)/c = (2c − o)/c.
		ratio = (2*cc - o) / cc
		if ratio < 0 {
			ratio = 0
		} else if ratio > 1 {
			ratio = 1
		}
	}
	return ratio, cl
}

// OverlapFigures produces the overlap figure family: sender-side
// overlap and receiver-side progress availability across the four
// progress modes, plus the eager-vs-rendezvous threshold ablation.
func OverlapFigures(cfg Config) []Result {
	modeFig := func(id, title string, recvSide bool) Result {
		measure := func(mode string) pointFn {
			return func(size int) (float64, parsweep.Metrics) {
				r, cl := cfg.overlapRatio(mode, 0, recvSide, size)
				return r, clusterMetrics(cl)
			}
		}
		return Result{
			ID:     id,
			Title:  title,
			XLabel: "message size bytes",
			YLabel: "overlap ratio",
			Series: cfg.sweep([]seriesSpec{
				{name: "Basic", sizes: overlapSizes, measure: measure("basic")},
				{name: "Interrupt", sizes: overlapSizes, measure: measure("interrupt")},
				{name: "One Thread", sizes: overlapSizes, measure: measure("one-thread")},
				{name: "Two Threads", sizes: overlapSizes, measure: measure("two-threads")},
			}),
		}
	}
	thresh := func(mode string, eager int) pointFn {
		return func(size int) (float64, parsweep.Metrics) {
			r, cl := cfg.overlapRatio(mode, eager, false, size)
			return r, clusterMetrics(cl)
		}
	}
	return []Result{
		modeFig("overlap-send", "Sender-side compute/communication overlap vs message size", false),
		modeFig("overlap-recv", "Receiver-side progress availability vs message size", true),
		{
			ID:     "overlap-threshold",
			Title:  "Sender overlap, default eager limit vs forced rendezvous",
			XLabel: "message size bytes",
			YLabel: "overlap ratio",
			Series: cfg.sweep([]seriesSpec{
				{name: "Basic eager", sizes: thresholdSizes, measure: thresh("basic", 0)},
				{name: "Basic rndv", sizes: thresholdSizes, measure: thresh("basic", overlapRndvEager)},
				{name: "Two Threads eager", sizes: thresholdSizes, measure: thresh("two-threads", 0)},
				{name: "Two Threads rndv", sizes: thresholdSizes, measure: thresh("two-threads", overlapRndvEager)},
			}),
		},
	}
}

// observedOverlap reruns one overlap configuration fully instrumented —
// cluster-wide tracer (ring bound limit) plus metrics registry — using
// the nonblocking collectives as the workload, so the progress-engine
// telemetry (pml tests/progress_us/idle_us, CQ occupancy gauges, NBC
// spans and ProgressDuty counter samples) all appear in one
// representative run. Strictly sequential, like an observed PingPong.
func observedOverlap(mode string, size, iters, warmup, limit int) (*trace.Recorder, obs.Snapshot) {
	rec := trace.NewRecorder(limit)
	reg := obs.New()
	spec := overlapSpec(mode, 0, 0)
	spec.Tracer = rec
	spec.Metrics = reg
	cl := cluster.New(spec, 2)
	uni := mpi.NewUniverse()
	cl.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, 2)
		comm := w.Comm()
		buf := make([]byte, 8)
		out := make([]byte, 8)
		dt := datatype.Contiguous(size)
		data := make([]byte, size)
		for i := 0; i < warmup+iters; i++ {
			var sq, rq *mpi.Request
			if p.Rank == 0 {
				sq = comm.Isend(1, 3, data, dt)
			} else {
				rq = comm.Irecv(0, 3, data, dt)
			}
			binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(p.Rank+i)))
			ar := comm.Iallreduce(buf, out, mpi.OpSumF64)
			p.Th.Compute(5 * simtime.Microsecond)
			ar.Wait()
			if p.Rank == 0 {
				sq.Wait()
			} else {
				rq.Wait()
			}
			comm.Ibarrier().Wait()
		}
	})
	mustRun(cl)
	return rec, reg.Snapshot()
}

// OverlapClaims derives the asynchronous-progress verdicts from
// already-measured overlap figures (no extra simulation): every ratio
// must be a valid fraction, and at the 64 KB rendezvous point the
// two-thread shared-queue configuration must make at least as much
// progress as polling Basic on the availability curve.
func OverlapClaims(figs []Result) []Claim {
	var claims []Claim
	for i := range figs {
		f := &figs[i]
		ok := true
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Value < 0 || p.Value > 1 {
					ok = false
				}
			}
		}
		claims = append(claims, Claim{
			ID:       f.ID + "-bounds",
			Paper:    fmt.Sprintf("overlap ratios are valid fractions (%s)", f.ID),
			Measured: fmt.Sprintf("%d series within [0,1]=%v", len(f.Series), ok),
			Pass:     ok,
		})
		if f.ID != "overlap-recv" {
			continue
		}
		basic := at(byName(f, "Basic"), 65536)
		twoT := at(byName(f, "Two Threads"), 65536)
		claims = append(claims, Claim{
			ID:       "overlap-recv-threads",
			Paper:    "progress threads keep the 64KB rendezvous advancing under compute",
			Measured: fmt.Sprintf("Basic %.3f vs Two Threads %.3f", basic, twoT),
			Pass:     twoT >= basic,
		})
	}
	return claims
}
