package experiments

import (
	"fmt"

	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// at returns the value a series reports for a message size.
func at(s Series, size int) float64 {
	for _, p := range s.Points {
		if p.Size == size {
			return p.Value
		}
	}
	panic(fmt.Sprintf("experiments: size %d not in series %q", size, s.Name))
}

// byName selects a series from a result.
func byName(r *Result, name string) Series {
	for _, s := range r.Series {
		if s.Name == name {
			return s
		}
	}
	panic("experiments: series not found: " + name)
}

// Claim is one checkable statement from the paper's evaluation.
type Claim struct {
	ID       string
	Paper    string // the claim as the paper states it
	Measured string // filled by Check
	Pass     bool   // filled by Check
}

// Claims measures every qualitative claim of §6 and returns the verdicts.
// Reduce cfg.Iters to trade accuracy for time. Every measurement is an
// independent simulation, so they fan out over cfg.Workers; the verdicts
// are assembled afterwards in a fixed order, making the report output
// identical at any parallelism.
func Claims(cfg Config) []Claim {
	mr := newMeasurer(cfg)
	ping := func(o ptlelan4.Options, dtp bool, mode pml.ProgressMode, n, iters int) *float64 {
		return mr.add(func() (float64, parsweep.Metrics) {
			return cfg.pingPong(elanSpec(o, dtp, mode), n, iters)
		})
	}
	poll := func(o ptlelan4.Options, n int) *float64 { return ping(o, false, pml.Polling, n, cfg.Iters) }
	tport := func(n, iters int) *float64 {
		return mr.add(func() (float64, parsweep.Metrics) { return cfg.tport(n, iters) })
	}

	read := base(ptlelan4.RDMARead)
	write := base(ptlelan4.RDMAWrite)
	readNI := ptlelan4.BestOptions(ptlelan4.RDMARead)
	noChain := ptlelan4.BestOptions(ptlelan4.RDMARead)
	noChain.ChainFin = false
	oneQ := ptlelan4.BestOptions(ptlelan4.RDMARead)
	oneQ.CQ = ptlelan4.OneQueue
	twoQ := ptlelan4.BestOptions(ptlelan4.RDMARead)
	twoQ.CQ = ptlelan4.TwoQueue

	// §6.1 / Fig. 7 measurements.
	dtp := ping(read, true, pml.Polling, 4, cfg.Iters)
	base4 := poll(read, 4)
	r4k := poll(read, 4096)
	w4k := poll(write, 4096)
	ni4k := poll(readNI, 4096)
	// §6.2 / Fig. 8 measurements.
	nc16k := poll(noChain, 16384)
	c16k := poll(ptlelan4.BestOptions(ptlelan4.RDMARead), 16384)
	q1 := poll(oneQ, 4096)
	q2 := poll(twoQ, 4096)
	q0 := poll(ptlelan4.BestOptions(ptlelan4.RDMARead), 4096)
	// §6.3 / Fig. 9 measurements (one layered sim yields both values;
	// it is deterministic, so re-running it per value is exact).
	layeredSpec := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling)
	layeredSpec.Shards = cfg.Shards
	layered := PingPong{Iters: cfg.Iters, Warmup: cfg.Warmup, LayerTrace: true}
	tot := mr.add(func() (float64, parsweep.Metrics) {
		r := layered.OpenMPI(layeredSpec)
		return r.LatencyUS, r.Engine
	})
	pmlc := mr.add(func() (float64, parsweep.Metrics) {
		r := layered.OpenMPI(layeredSpec)
		return r.PMLCostUS, r.Engine
	})
	qdma64 := mr.add(func() (float64, parsweep.Metrics) { return qdmaPingPong(64, cfg.Iters, cfg.Warmup) })
	// §6.5 / Fig. 10 measurements.
	m0 := tport(0, cfg.Iters)
	p0 := poll(readNI, 0)
	m16k := tport(16384, cfg.Iters)
	o16k := poll(readNI, 16384)
	mHuge := tport(1<<20, cfg.itersFor(1<<20))
	oHuge := ping(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling, 1<<20, cfg.itersFor(1<<20))

	mr.run()
	// §6.4 / Table 1 runs as its own parallel batch.
	t1 := Table1(cfg)

	var out []Claim
	add := func(id, paper, measured string, pass bool) {
		out = append(out, Claim{ID: id, Paper: paper, Measured: measured, Pass: pass})
	}

	add("fig7-dtp",
		"the datatype component introduces an overhead of about 0.4us",
		fmt.Sprintf("+%.2fus at 4B", *dtp-*base4),
		*dtp-*base4 > 0.25 && *dtp-*base4 < 0.6)

	add("fig7-read-vs-write",
		"RDMA read delivers better performance than RDMA write (saves a control packet)",
		fmt.Sprintf("read %.2fus vs write %.2fus at 4KB", *r4k, *w4k),
		*r4k < *w4k)

	add("fig7-noinline",
		"transmitting the rendezvous packet without inlined data improves performance",
		fmt.Sprintf("no-inline %.2fus vs inline %.2fus at 4KB", *ni4k, *r4k),
		*ni4k < *r4k)

	add("fig8-chained",
		"chained DMA for fast completion notification provides marginal improvements for long messages",
		fmt.Sprintf("chained %.2fus vs host-issued %.2fus at 16KB", *c16k, *nc16k),
		*c16k < *nc16k && *nc16k-*c16k < 2.0)

	add("fig8-cq-cost",
		"the shared completion queue support does bring performance impacts (extra QDMA per RDMA)",
		fmt.Sprintf("one-queue %.2fus, two-queue %.2fus vs %.2fus at 4KB", *q1, *q2, *q0),
		*q1 > *q0 && *q2 > *q0)
	add("fig8-one-vs-two",
		"checking two eight-byte host-events costs about the same as checking one (polling)",
		fmt.Sprintf("|two-one| = %.2fus", *q2-*q1),
		*q2-*q1 >= 0 && *q2-*q1 < 0.5)

	add("fig9-pml-cost",
		"the PML layer and above has a communication cost of 0.5us",
		fmt.Sprintf("%.2fus at 0B", *pmlc),
		*pmlc > 0.3 && *pmlc < 0.8)
	add("fig9-ptl-vs-qdma",
		"PTL/Elan4 delivers performance comparable to native QDMA carrying N+64 bytes",
		fmt.Sprintf("PTL(0B) %.2fus vs QDMA(64B) %.2fus", *tot-*pmlc, *qdma64),
		(*tot-*pmlc)-*qdma64 > -0.3 && (*tot-*pmlc)-*qdma64 < 0.6)

	b4 := at(byName(t1, "Basic"), 4)
	i4 := at(byName(t1, "Interrupt"), 4)
	o4 := at(byName(t1, "One Thread"), 4)
	w4 := at(byName(t1, "Two Threads"), 4)
	add("table1-interrupt",
		"about 10us due to the interrupt",
		fmt.Sprintf("+%.2fus", i4-b4),
		i4-b4 > 8 && i4-b4 < 14)
	add("table1-one-thread",
		"one-thread-based asynchronous progress is more efficient than two threads",
		fmt.Sprintf("one %.2fus vs two %.2fus", o4, w4),
		o4 < w4)

	add("fig10-small-latency",
		"latency slightly lower but comparable to MPICH-QsNetII, except small messages (header + NIC matching)",
		fmt.Sprintf("MPICH %.2fus vs Open MPI %.2fus at 0B", *m0, *p0),
		*m0 < *p0 && *p0-*m0 < 2.0)

	mbw := toBW(16384, *m16k)
	obw := toBW(16384, *o16k)
	add("fig10-midrange-bw",
		"our implementation performs worse in the middle range of messages (Tport pipelines)",
		fmt.Sprintf("MPICH %.0f vs Open MPI %.0f MB/s at 16KB", mbw, obw),
		mbw > obw)

	mHugeBW := toBW(1<<20, *mHuge)
	oHugeBW := toBW(1<<20, *oHuge)
	add("fig10-asymptote",
		"comparable performance at large messages",
		fmt.Sprintf("MPICH %.0f vs Open MPI %.0f MB/s at 1MB", mHugeBW, oHugeBW),
		oHugeBW/mHugeBW > 0.97)

	return out
}
