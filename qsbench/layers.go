package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// perLayer are the metrics of a traced run (--trace 1). Each names the
// end-to-end metric it should move in qsbench/README.md.
var perLayer = []metricDef{
	{"simtime.run_s", "s"},
	{"simtime.events", "count"},
	{"simtime.events_per_op", "count"},
	{"simtime.events_per_s", "1/s"},
	{"simtime.ns_per_event", "ns"},
	{"simtime.shard_drift_us", "us"},
	{"simtime.shard_event_drift", "count"},
	{"cluster.new_s", "s"},
	{"cluster.bringup_s", "s"},
	{"fabric.pkts_sent", "count"},
	{"fabric.payload_bytes", "B"},
	{"fabric.retransmits", "count"},
	{"fabric.route_cache_hit_ratio", "ratio"},
	{"fabric.max_port_bytes", "B"},
	{"elan4.qdmas", "count"},
	{"elan4.rdma_reads", "count"},
	{"elan4.rdma_writes", "count"},
	{"elan4.chain_fires", "count"},
	{"elan4.retries", "count"},
	{"elan4.retry_ratio", "ratio"},
	{"elan4.interrupts", "count"},
	{"ptlelan4.eager_tx", "count"},
	{"ptlelan4.rndv_tx", "count"},
	{"ptlelan4.ctrl_per_rndv", "count"},
	{"ptlelan4.cq_records", "count"},
	{"ptlelan4.host_issued_fins", "count"},
	{"pml.match_attempts", "count"},
	{"pml.bucket_hit_ratio", "ratio"},
	{"pml.unexpected", "count"},
	{"pml.unexpected_high_water", "count"},
	{"pml.progress_polls", "count"},
	{"pml.polls_per_op", "count"},
	{"pml.duty", "ratio"},
	{"mpi.barrier_sim_us.host", "us"},
	{"mpi.barrier_sim_us.nic", "us"},
	{"mpi.allreduce_sim_us.host", "us"},
	{"mpi.allreduce_sim_us.nic", "us"},
	{"mpi.bcast_sim_us.host", "us"},
	{"mpi.bcast_sim_us.nic", "us"},
	{"phase.eager.sched_us", "us"},
	{"phase.eager.dma-queue_us", "us"},
	{"phase.eager.wire_us", "us"},
	{"phase.eager.drain_us", "us"},
	{"phase.eager.match_us", "us"},
	{"phase.eager.deliver_us", "us"},
	{"phase.rdma-read.sched_us", "us"},
	{"phase.rdma-read.dma-queue_us", "us"},
	{"phase.rdma-read.wire_us", "us"},
	{"phase.rdma-read.drain_us", "us"},
	{"phase.rdma-read.match_us", "us"},
	{"phase.rdma-read.handshake_us", "us"},
	{"phase.rdma-read.body-dma_us", "us"},
	{"phase.rdma-read.fin-lag_us", "us"},
	{"wait.late_sender_us", "us"},
	{"wait.late_receiver_us", "us"},
	{"wait.barrier_us", "us"},
	{"wait.nic_contention_us", "us"},
	{"goruntime.alloc_b_per_event", "B"},
	{"goruntime.gc_cpu_frac", "ratio"},
	{"goruntime.peak_heap_mb", "MB"},
	{"host_share.simtime", "ratio"},
	{"host_share.pml", "ratio"},
	{"host_share.ptlelan4", "ratio"},
	{"host_share.elan4", "ratio"},
	{"host_share.fabric", "ratio"},
	{"host_share.mpi", "ratio"},
	{"host_share.obs", "ratio"},
	{"host_share.trace", "ratio"},
	{"host_share.goruntime", "ratio"},
	{"obs.overhead", "ratio"},
	{"obs.analyze_s", "s"},
	{"obs.folded_msgs", "count"},
	{"trace.events", "count"},
	{"trace.dropped", "count"},
}

// phasePaths are the obs.Analyze protocol paths reported, with the
// phases of each path's anchor chain in order. The rdma-read chain queues
// two descriptors, the rendezvous header and the RDMA read, so its
// dma-queue metric is the sum of both.
var phasePaths = []struct {
	path   string
	phases []string
}{
	{"eager", []string{"sched", "dma-queue", "wire", "drain", "match", "deliver"}},
	{"rdma-read", []string{"sched", "dma-queue", "wire", "drain", "match", "handshake", "dma-queue", "body-dma", "fin-lag"}},
}

// pathPhases is the phase list of a reported path, nil for any other.
func pathPhases(path string) []string {
	for _, pp := range phasePaths {
		if pp.path == path {
			return pp.phases
		}
	}
	return nil
}

// runLayers alternates untraced and traced trials of w for at least
// seconds, then probes shard drift on collectives, and reports each
// per-layer metric as its median over the trials that measure it: host
// times from the untraced trials, counts, phases and profiles from the
// traced ones.
func runLayers(out io.Writer, w *workload, seconds float64) result {
	var plain, traced []*childReport
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < seconds {
		plain = append(plain, spawn(w, "plain"))
		traced = append(traced, spawn(w, "traced"))
	}
	var notes []string
	all := append(append([]*childReport(nil), plain...), traced...)
	attempted, failed := tally(all, &notes)

	samples := map[string][]float64{}
	var plainRun, tracedRun []float64
	for _, r := range all {
		for k, v := range r.Layer {
			samples[k] = append(samples[k], v)
		}
		if r.Events == 0 {
			continue // a crashed trial
		}
		if r.Mode == "plain" {
			plainRun = append(plainRun, r.RunS)
		} else {
			tracedRun = append(tracedRun, r.RunS)
		}
	}
	vals := map[string]float64{}
	for k, xs := range samples {
		vals[k] = median(xs)
	}
	if len(plainRun) > 0 && len(tracedRun) > 0 {
		vals["obs.overhead"] = median(tracedRun) / median(plainRun)
	}

	if w.name == "collectives" {
		// The NIC half again at one shard per CPU, against the sequential
		// NIC half of the first untraced trial.
		probe := spawn(w, "probe")
		a, f := tally([]*childReport{probe}, &notes)
		attempted, failed = attempted+a, failed+f
		if seq := plain[0]; probe.EndEvents > 0 && seq.EndEvents > 0 {
			vals["simtime.shard_drift_us"] = probe.EndUS - seq.EndUS
			vals["simtime.shard_event_drift"] = float64(probe.EndEvents - seq.EndEvents)
			fmt.Fprintf(out, "shard probe: NIC half ends at %.6f us sequential, %.6f us at %d shards; %d vs %d events\n",
				seq.EndUS, probe.EndUS, probeShards(), seq.EndEvents, probe.EndEvents)
		}
	}

	fmt.Fprintf(out, "qsbench %s seed=%d traced run: %d untraced + %d traced trials, ops/trial=%d, GOMAXPROCS=%d NumCPU=%d\n",
		w.name, w.seed, len(plain), len(traced), len(w.ops)*len(w.halves()), runtime.GOMAXPROCS(0), runtime.NumCPU())
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-30s %16.6g %s\n", d.name, vals[d.name], d.unit)
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Fprintf(out, "sim_digest=%s in every untraced and traced trial unless a FAIL line says otherwise\n", plain[0].Digest)
	for _, s := range notes {
		fmt.Fprintln(out, "FAIL:", s)
	}
	res.Correct = failed == 0
	return res
}
