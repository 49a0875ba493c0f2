package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"qsmpi/internal/cluster"
	"qsmpi/internal/mpi"
	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// observe selects what a trial attaches to its clusters. The zero value
// is the untraced configuration the end-to-end metrics come from.
type observe struct {
	// traced attaches a trace recorder and a metrics registry.
	traced bool
	// shards overrides Spec.Shards (the shard-drift probe); 0 keeps the
	// program's default, the sequential engine.
	shards int
}

// halfRun is what one cluster of a trial leaves behind.
type halfRun struct {
	events       int64
	end          simtime.Time
	snap         obs.Snapshot    // traced only
	rec          *trace.Recorder // traced only
	maxPortBytes int64           // traced only
}

// trial is one set-up and run of a workload's operations on each of its
// clusters. Host times are in seconds, per-op samples in microseconds.
type trial struct {
	newS, bringupS, runS, opS float64
	// hostUS is rank 0's host time per op; simUS the virtual time per op
	// (half of rank 0's round trip on pingpong, else the mean over ranks
	// of each rank's call). Clusters are appended in order.
	hostUS, simUS     []float64
	kinds             []opKind
	nic               []bool
	span              simtime.Duration // rank 0's virtual op phase, summed
	payload           int64
	events            int64
	attempted, failed int
	errs              []string
	halves            []halfRun
	// opTimes holds every op's virtual time on rank 0 and summed over
	// ranks, for the digest.
	opTimes [][2]simtime.Duration
}

func (t *trial) setupS() float64 { return t.newS + t.bringupS }

// digest hashes every per-op virtual time and the kernel event count. A
// change that only speeds up the simulator must leave it unchanged.
func (t *trial) digest() string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, d := range t.opTimes {
		put(int64(d[0]))
		put(int64(d[1]))
	}
	put(t.events)
	return fmt.Sprintf("%016x", h.Sum64())
}

// runTrial sets up and runs w once per cluster of the workload.
func runTrial(w *workload, o observe) *trial {
	t := &trial{}
	for _, nic := range w.halves() {
		runHalf(w, nic, o, t)
	}
	return t
}

// runHalf builds one cluster, runs every operation of w on it closed
// loop, and folds the timings and checks into t.
func runHalf(w *workload, nic bool, o observe, t *trial) {
	n, nops := w.ranks, len(w.ops)
	spec := w.spec(nic)
	spec.Shards = o.shards
	var half halfRun
	var reg *obs.Registry
	if o.traced {
		// Unbounded: a bounded recorder preallocates its whole limit.
		half.rec = trace.NewRecorder(0)
		reg = obs.New()
		spec.Tracer, spec.Metrics = half.rec, reg
	}

	// Every slot below is written by one rank only (rank 0's timings, a
	// rank's own progress and call times), or atomically, so the sharded
	// drift probe needs no further locking.
	var bodyAt atomic.Int64
	done := make([]int, n)
	bad := make([]atomic.Bool, nops)
	enter := make([]simtime.Time, n*nops)
	exit := make([]simtime.Time, n*nops)
	hostUS := make([]float64, nops)

	// Buffers are allocated and touched before the timed set-up, and a
	// collection then starts it from a settled heap, so neither an
	// earlier half's garbage nor the buffers' growth lands in it.
	states := make([]*rankState, n)
	for r := range states {
		states[r] = newRankState(w, r)
	}
	runtime.GC()
	uni := mpi.NewUniverse()
	t0 := time.Now()
	cl := cluster.New(spec, n)
	t1 := time.Now()
	cl.Launch(func(p *cluster.Proc) {
		world := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n)
		if nic {
			world.SetHWColl(p.Elan)
		}
		st := states[p.Rank]
		st.comm = world.Comm()
		// Set-up ends when the first rank enters the body: no rank gets
		// past the mpi-init rendezvous before every rank has finished its
		// bringup, and from here on the kernel also runs operations.
		bodyAt.CompareAndSwap(0, time.Now().UnixNano())
		for i := range w.ops {
			st.prepare(i)
			slot := p.Rank*nops + i
			enter[slot] = p.Th.Now()
			if p.Rank == 0 {
				h0 := time.Now()
				st.run(i)
				hostUS[i] = float64(time.Since(h0).Nanoseconds()) / 1e3
			} else {
				st.run(i)
			}
			exit[slot] = p.Th.Now()
			if !st.check(i) {
				bad[i].Store(true)
			}
			done[p.Rank] = i + 1
		}
	})
	err := cl.Run()
	t2 := time.Now()

	t.newS += t1.Sub(t0).Seconds()
	t.runS += t2.Sub(t1).Seconds()
	if at := bodyAt.Load(); at != 0 {
		t.bringupS += time.Unix(0, at).Sub(t1).Seconds()
		t.opS += t2.Sub(time.Unix(0, at)).Seconds()
	}
	if err != nil {
		// A deadlock fails every operation some rank had not finished.
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", halfName(w, nic), err))
		first := nops
		for _, d := range done {
			first = min(first, d)
		}
		for i := first; i < nops; i++ {
			bad[i].Store(true)
		}
	}
	for i, op := range w.ops {
		var sum simtime.Duration
		lastIn, firstOut := enter[i], exit[i]
		for r := 0; r < n; r++ {
			in, out := enter[r*nops+i], exit[r*nops+i]
			sum += out.Sub(in)
			lastIn, firstOut = max(lastIn, in), min(firstOut, out)
		}
		// A barrier is wrong if any rank left it before the last entered.
		if op.kind == opBarrier && firstOut < lastIn {
			bad[i].Store(true)
		}
		rank0 := exit[i].Sub(enter[i])
		t.opTimes = append(t.opTimes, [2]simtime.Duration{rank0, sum})
		us := sum.Micros() / float64(n)
		if op.kind == opPingPong {
			us = rank0.Micros() / 2 // one op is a round trip
		}
		t.simUS = append(t.simUS, us)
		t.kinds = append(t.kinds, op.kind)
		t.nic = append(t.nic, nic)
		t.payload += w.payload(i)
		t.attempted++
		if bad[i].Load() {
			t.failed++
		}
	}
	t.hostUS = append(t.hostUS, hostUS...)
	t.span += exit[nops-1].Sub(enter[0])
	half.events = cl.K.Steps()
	half.end = cl.Now()
	t.events += half.events
	if o.traced {
		half.snap = reg.Snapshot()
		for port := 0; port < len(cl.Hosts); port++ {
			half.maxPortBytes = max(half.maxPortBytes, cl.Net.PortCounters(port).BytesIn)
		}
	}
	t.halves = append(t.halves, half)
}

func halfName(w *workload, nic bool) string {
	if w.name != "collectives" {
		return w.name
	}
	if nic {
		return "collectives/nic"
	}
	return "collectives/host"
}
