package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"qsmpi/internal/obs"
	"qsmpi/internal/simtime"
	"qsmpi/internal/trace"
)

// runChild runs one trial of w in this process. mode "plain" is the
// untraced trial the end-to-end and host-time metrics come from, "traced"
// attaches the tracer, the metrics registry and a CPU profile, and
// "probe" runs the NIC half of collectives on the sharded engine.
func runChild(w *workload, mode string) (*childReport, error) {
	var t *trial
	layer := map[string]float64{}
	switch mode {
	case "plain":
		runtime.GC()
		before := readRuntime()
		stop := heapPeak()
		t = runTrial(w, observe{})
		layer["goruntime.peak_heap_mb"] = stop() / 1e6
		after := readRuntime()
		layer["goruntime.alloc_b_per_event"] = (after.allocB - before.allocB) / float64(t.events)
		if d := after.totalCPU - before.totalCPU; d > 0 {
			layer["goruntime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / d
		}
		plainLayers(layer, t)
	case "traced":
		var bad int
		var err error
		if t, bad, err = tracedTrial(w, layer); err != nil {
			return nil, err
		}
		// A message the phases do not explain cannot be tied to one
		// operation, so it fails every operation of the trial.
		if bad > 0 {
			t.failed = t.attempted
			t.errs = append(t.errs, fmt.Sprintf("%d traced messages whose phases do not explain their latency", bad))
		}
	case "probe":
		t = &trial{}
		runHalf(w, true, observe{shards: probeShards()}, t)
	default:
		return nil, fmt.Errorf("unknown child mode %q", mode)
	}
	last := t.halves[len(t.halves)-1]
	rep := &childReport{
		Mode: mode, Digest: t.digest(), Attempted: t.attempted, Failed: t.failed, Errs: t.errs,
		SetupS: t.setupS(), RunS: t.runS, OpsPerS: float64(t.attempted) / t.opS,
		Events: t.events, MaxRSSMB: peakRSSMB(),
		EndUS: last.end.Micros(), EndEvents: last.events,
		Layer: layer,
	}
	if mode == "plain" {
		rep.HostUS, rep.SimUS = t.hostUS, t.simUS
		rep.SimMBps = float64(t.payload) / (float64(t.span) / 1e12) / 1e6
	}
	return rep, nil
}

// probeShards is the shard count of the drift probe: one per CPU, and at
// least two so the probe always runs the sharded engine.
func probeShards() int { return max(2, runtime.NumCPU()) }

// peakRSSMB is this process's peak resident set in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// plainLayers derives the kernel, bringup and per-collective metrics of
// an untraced trial.
func plainLayers(layer map[string]float64, t *trial) {
	nops := float64(t.attempted)
	layer["simtime.run_s"] = t.runS
	layer["simtime.events"] = float64(t.events)
	layer["simtime.events_per_op"] = float64(t.events) / nops
	layer["simtime.events_per_s"] = float64(t.events) / t.runS
	layer["simtime.ns_per_event"] = t.runS * 1e9 / float64(t.events)
	layer["cluster.new_s"] = t.newS
	layer["cluster.bringup_s"] = t.bringupS
	for _, kind := range []opKind{opBarrier, opAllreduce, opBcast} {
		for _, nic := range []bool{false, true} {
			var xs []float64
			for i, k := range t.kinds {
				if k == kind && t.nic[i] == nic {
					xs = append(xs, t.simUS[i])
				}
			}
			tree := "host"
			if nic {
				tree = "nic"
			}
			layer[fmt.Sprintf("mpi.%s_sim_us.%s", kind, tree)] = median(xs)
		}
	}
}

// tracedTrial runs w with a recorder and registry on every cluster and a
// CPU profile around each cluster's run, then analyzes each cluster's
// trace before the next one starts. bad counts the messages whose phases
// do not explain their latency.
func tracedTrial(w *workload, layer map[string]float64) (t *trial, bad int, err error) {
	t = &trial{}
	flat := map[string]int64{}
	ph := newPhaseAcc()
	var analyzeS float64
	for _, nic := range w.halves() {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		runHalf(w, nic, observe{traced: true}, t)
		pprof.StopCPUProfile()
		f, err := profileFlat(prof.Bytes())
		if err != nil {
			return nil, 0, err
		}
		for fn, n := range f {
			flat[fn] += n
		}
		h := &t.halves[len(t.halves)-1]
		start := time.Now()
		ph.add(h, layer)
		analyzeS += time.Since(start).Seconds()
		h.rec = nil
	}
	nops := float64(t.attempted)
	layer["obs.analyze_s"] = analyzeS
	ph.finish(layer, nops)
	layerCounts(layer, t.halves, nops)
	var total int64
	byModule := map[string]int64{}
	for fn, n := range flat {
		total += n
		byModule[moduleOf(fn)] += n
	}
	for _, m := range hostModules {
		if total > 0 {
			layer["host_share."+m] = float64(byModule[m]) / float64(total)
		}
	}
	return t, ph.bad, nil
}

// phaseAcc accumulates the obs.Analyze phases and obs.AnalyzeWaits wait
// states of every traced cluster.
type phaseAcc struct {
	msgs   map[string]int
	phases map[string]float64 // "path/phase" -> summed us
	waits  map[obs.WaitKind]float64
	bad    int // messages whose phases do not explain their latency
}

func newPhaseAcc() *phaseAcc {
	return &phaseAcc{msgs: map[string]int{}, phases: map[string]float64{}, waits: map[obs.WaitKind]float64{}}
}

// add analyzes one cluster's trace. Analyze and AnalyzeWaits each copy
// the event stream, so they run one after the other with a collection in
// between to keep the peak footprint to one copy at a time.
func (a *phaseAcc) add(h *halfRun, layer map[string]float64) {
	layer["trace.events"] += float64(h.rec.Len())
	layer["trace.dropped"] += float64(h.rec.Dropped())
	prof := obs.Analyze(h.rec.Events())
	bad, folded := checkPhases(prof, h.rec.Events())
	a.bad += bad
	layer["obs.folded_msgs"] += float64(folded)
	for _, m := range prof.Messages {
		for _, p := range m.Phases {
			a.phases[m.Path+"/"+p.Name] += p.Dur.Micros()
		}
		a.msgs[m.Path]++
	}
	runtime.GC()
	for _, wt := range obs.AnalyzeWaits(h.rec.Events()).Waits {
		a.waits[wt.Kind] += wt.Dur.Micros()
	}
}

// checkPhases compares each message obs.Analyze reconstructed from evs
// with the message's own raw events. bad counts the messages whose phases
// do not add up to the span from the send's post to the message's
// completion, read straight from the raw events: the receive's completion
// on the eager path, the later of both completions on a rendezvous path.
// A message of another path, or without those events, is bad too. folded
// counts the messages whose phases are not exactly their path's chain: an
// anchor event was missing or out of order, and obs.Analyze folded its
// time into the next phase, so their phase split is approximate.
func checkPhases(p obs.Profile, evs []trace.Event) (bad, folded int) {
	type span struct {
		posted, recvDone, sendDone simtime.Time
		seen                       [3]bool
	}
	spans := map[uint64]*span{}
	first := func(at *simtime.Time, seen *bool, t simtime.Time) {
		if !*seen {
			*at, *seen = t, true
		}
	}
	for _, e := range evs {
		if e.Corr == 0 {
			continue
		}
		s := spans[e.Corr]
		if s == nil {
			s = &span{}
			spans[e.Corr] = s
		}
		switch e.Kind {
		case trace.SendPosted:
			first(&s.posted, &s.seen[0], e.At)
		case trace.RecvCompleted:
			first(&s.recvDone, &s.seen[1], e.At)
		case trace.SendCompleted:
			first(&s.sendDone, &s.seen[2], e.At)
		}
	}
	for _, m := range p.Messages {
		want := pathPhases(m.Path)
		var sum simtime.Duration
		same := len(m.Phases) == len(want)
		for i, ph := range m.Phases {
			sum += ph.Dur
			same = same && ph.Name == want[i]
		}
		if !same {
			folded++
		}
		s := spans[m.Corr]
		if want == nil || s == nil || !s.seen[0] || !s.seen[1] {
			bad++
			continue
		}
		end := s.recvDone
		if m.Path != "eager" {
			if !s.seen[2] {
				bad++
				continue
			}
			end = max(end, s.sendDone)
		}
		if sum != end.Sub(s.posted) {
			bad++
		}
	}
	return bad, folded
}

// finish writes the phase means (per message of the path, so a path's
// phases add up to its mean latency) and the rank-summed waits per op.
func (a *phaseAcc) finish(layer map[string]float64, nops float64) {
	for _, pp := range phasePaths {
		for _, p := range pp.phases {
			if n := a.msgs[pp.path]; n > 0 {
				layer[fmt.Sprintf("phase.%s.%s_us", pp.path, p)] = a.phases[pp.path+"/"+p] / float64(n)
			}
		}
	}
	layer["wait.late_sender_us"] = a.waits[obs.WaitLateSender] / nops
	layer["wait.late_receiver_us"] = a.waits[obs.WaitLateReceiver] / nops
	layer["wait.barrier_us"] = a.waits[obs.WaitBarrier] / nops
	layer["wait.nic_contention_us"] = a.waits[obs.WaitNIC] / nops
}

// layerCounts derives the counter metrics from the registry snapshots
// and port counters of each cluster of one traced trial.
func layerCounts(layer map[string]float64, halves []halfRun, nops float64) {
	sum := func(l, name string) float64 {
		var v float64
		for _, h := range halves {
			v += h.snap.Total(l, name)
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layer["fabric.pkts_sent"] = sum("fabric", "pkts_sent")
	layer["fabric.payload_bytes"] = sum("fabric", "payload_bytes")
	layer["fabric.retransmits"] = sum("fabric", "retransmits")
	hits, misses := sum("fabric", "route_cache_hits"), sum("fabric", "route_cache_misses")
	layer["fabric.route_cache_hit_ratio"] = ratio(hits, hits+misses)
	for _, h := range halves {
		layer["fabric.max_port_bytes"] = max(layer["fabric.max_port_bytes"], float64(h.maxPortBytes))
		for _, s := range h.snap.Samples {
			if s.Layer == "pml" && s.Name == "unexpected_high_water" {
				layer["pml.unexpected_high_water"] = max(layer["pml.unexpected_high_water"], s.Value)
			}
		}
	}
	for _, n := range []string{"qdmas", "rdma_reads", "rdma_writes", "chain_fires", "retries", "interrupts"} {
		layer["elan4."+n] = sum("elan4", n)
	}
	// Wasted QDMA deposits: a retried QDMA counts once in qdmas and once
	// more per retry.
	layer["elan4.retry_ratio"] = ratio(layer["elan4.retries"], layer["elan4.qdmas"]+layer["elan4.retries"])
	for _, n := range []string{"eager_tx", "rndv_tx", "cq_records", "host_issued_fins"} {
		layer["ptlelan4."+n] = sum("ptl", n)
	}
	ctrl := sum("ptl", "ack_tx") + sum("ptl", "fin_tx") + sum("ptl", "fin_ack_tx")
	layer["ptlelan4.ctrl_per_rndv"] = ratio(ctrl, layer["ptlelan4.rndv_tx"])
	layer["pml.match_attempts"] = sum("pml", "match_attempts")
	layer["pml.bucket_hit_ratio"] = ratio(sum("pml", "match_bucket_hits"), layer["pml.match_attempts"])
	layer["pml.unexpected"] = sum("pml", "unexpected")
	layer["pml.progress_polls"] = sum("pml", "progress_polls")
	layer["pml.polls_per_op"] = layer["pml.progress_polls"] / nops
	busy, idle := sum("pml", "progress_us"), sum("pml", "idle_us")
	layer["pml.duty"] = ratio(busy, busy+idle)
}

// runtimeSample reads the Go runtime counters one untraced trial is
// charged with.
type runtimeSample struct{ allocB, gcCPU, totalCPU float64 }

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocB: v(0), gcCPU: v(1), totalCPU: v(2)}
}

// heapPeak polls the live-heap size until stopped and keeps the largest
// reading; stop waits for the poller to exit.
func heapPeak() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return peak
	}
}
