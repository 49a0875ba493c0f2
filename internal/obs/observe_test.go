// Cross-layer integration tests: golden protocol timelines over the full
// stack, Perfetto export validity, and the zero-perturbation guarantee
// (attaching the tracer and registry must not move virtual time).
//
// External test package: these tests drive internal/cluster and
// internal/experiments, which import obs.
package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/experiments"
	"qsmpi/internal/obs"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/trace"
)

// exchange runs one 2-rank send/recv with a full-stack tracer attached and
// returns the recorder.
func exchange(t *testing.T, scheme ptlelan4.Scheme, size int) *trace.Recorder {
	t.Helper()
	o := ptlelan4.BestOptions(scheme)
	rec := trace.NewRecorder(0)
	c := cluster.New(cluster.Spec{Elan: &o, Progress: pml.Polling, Tracer: rec}, 2)
	c.Launch(func(p *cluster.Proc) {
		dt := datatype.Contiguous(size)
		if p.Rank == 0 {
			p.Stack.Send(p.Th, 1, 0, 0, make([]byte, size), dt).Wait(p.Th)
		} else {
			p.Stack.Recv(p.Th, 0, 0, 0, make([]byte, size), dt).Wait(p.Th)
		}
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// protocolSteps flattens the recorded events to "rank layer kind" strings,
// skipping the fabric layer (its per-packet events scale with message size
// and fragmentation, which is not what the protocol goldens pin down).
func protocolSteps(rec *trace.Recorder) []string {
	var out []string
	for _, e := range rec.Events() {
		if e.Layer == trace.LayerFabric {
			continue
		}
		out = append(out, fmt.Sprintf("rank%d %s %s", e.Rank, e.Layer, e.Kind))
	}
	return out
}

func checkGolden(t *testing.T, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("step %d: got %q, want %q", i, g, w)
		}
	}
}

// TestGoldenReadTimeline pins the RDMA-read rendezvous of Fig. 4: RTS via
// QDMA, receiver-side match, RDMA read pulling the body, and the chained
// FIN_ACK completing the sender — one control message fewer than write.
func TestGoldenReadTimeline(t *testing.T) {
	got := protocolSteps(exchange(t, ptlelan4.RDMARead, 4096))
	checkGolden(t, got, []string{
		"rank1 pml recv-posted",
		"rank0 pml send-posted",
		"rank0 ptl rndv-tx",
		"rank0 elan4 qdma-issued",
		"rank1 elan4 qdma-deposited",
		"rank1 pml first-arrived",
		"rank1 pml matched",
		"rank1 ptl get-issued",
		"rank0 elan4 dma-completed",
		"rank0 elan4 chain-fired",
		"rank1 elan4 rdma-read-issued",
		"rank1 elan4 dma-completed",
		"rank1 elan4 chain-fired",
		"rank1 pml recv-progressed",
		"rank1 pml recv-completed",
		"rank1 elan4 qdma-issued",
		"rank0 elan4 qdma-deposited",
		"rank0 ptl fin-ack-rx",
		"rank0 pml send-progressed",
		"rank0 pml send-completed",
		"rank1 elan4 dma-completed",
	})
}

// TestGoldenWriteTimeline pins the RDMA-write rendezvous of Fig. 3: RTS,
// receiver ACK carrying the destination descriptor, sender-side RDMA
// write, and the trailing FIN.
func TestGoldenWriteTimeline(t *testing.T) {
	got := protocolSteps(exchange(t, ptlelan4.RDMAWrite, 4096))
	checkGolden(t, got, []string{
		"rank1 pml recv-posted",
		"rank0 pml send-posted",
		"rank0 ptl rndv-tx",
		"rank0 elan4 qdma-issued",
		"rank1 elan4 qdma-deposited",
		"rank1 pml first-arrived",
		"rank1 pml matched",
		"rank0 elan4 dma-completed",
		"rank0 elan4 chain-fired",
		"rank1 ptl ack-tx",
		"rank1 elan4 qdma-issued",
		"rank0 elan4 qdma-deposited",
		"rank0 pml ack-arrived",
		"rank0 ptl put-issued",
		"rank1 elan4 dma-completed",
		"rank1 elan4 chain-fired",
		"rank0 elan4 rdma-write-issued",
		"rank0 elan4 dma-completed",
		"rank0 elan4 chain-fired",
		"rank0 pml send-progressed",
		"rank0 pml send-completed",
		"rank0 elan4 qdma-issued",
		"rank1 elan4 qdma-deposited",
		"rank1 ptl fin-rx",
		"rank1 pml recv-progressed",
		"rank1 pml recv-completed",
		"rank0 elan4 dma-completed",
	})
}

// TestGoldenEagerTimeline pins the short-message path: one QDMA carries
// header and data, and the sender completes locally before the deposit.
func TestGoldenEagerTimeline(t *testing.T) {
	got := protocolSteps(exchange(t, ptlelan4.RDMARead, 256))
	checkGolden(t, got, []string{
		"rank1 pml recv-posted",
		"rank0 pml send-posted",
		"rank0 ptl eager-tx",
		"rank0 pml send-progressed",
		"rank0 pml send-completed",
		"rank0 elan4 qdma-issued",
		"rank1 elan4 qdma-deposited",
		"rank1 pml first-arrived",
		"rank1 pml matched",
		"rank1 pml recv-progressed",
		"rank1 pml recv-completed",
		"rank0 elan4 dma-completed",
		"rank0 elan4 chain-fired",
	})
}

// TestFabricEventsRecorded checks the layer the goldens skip: every
// rendezvous exchange must record matching sent/delivered packet events.
func TestFabricEventsRecorded(t *testing.T) {
	rec := exchange(t, ptlelan4.RDMARead, 4096)
	by := rec.ByKind()
	if by[trace.PktSent] == 0 || by[trace.PktSent] != by[trace.PktDelivered] {
		t.Fatalf("fabric events: %d sent, %d delivered", by[trace.PktSent], by[trace.PktDelivered])
	}
}

// TestPerfettoExportOfRendezvous validates the exported Chrome trace-event
// JSON for a rendezvous exchange: well-formed, one thread track per
// rank×layer with all four layers present, and paired spans with
// non-negative durations.
func TestPerfettoExportOfRendezvous(t *testing.T) {
	rec := exchange(t, ptlelan4.RDMARead, 100000)
	var buf bytes.Buffer
	if err := obs.WritePerfetto(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace-event JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	layers := map[string]bool{}
	spans := map[string]int{}
	counters := map[string]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				layers[e.Args["name"].(string)] = true
			}
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("span %q without valid dur", e.Name)
			}
			spans[e.Name]++
		case "C":
			counters[e.Name]++
		case "i":
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	for _, l := range []string{"pml", "ptl", "elan4", "fabric"} {
		if !layers[l] {
			t.Errorf("layer %q missing from export (have %v)", l, layers)
		}
	}
	for _, s := range []string{"send", "recv", "qdma", "rdma-read"} {
		if spans[s] == 0 {
			t.Errorf("span %q missing from export (have %v)", s, spans)
		}
	}
	// The PML posts/completions of the exchange feed the queue-depth
	// counter track.
	if counters["pml-inflight"] == 0 {
		t.Errorf("pml-inflight counter track missing from export (have %v)", counters)
	}
}

// TestObservabilityDoesNotPerturbVirtualTime is the determinism gate: the
// same workload must produce bit-identical simulated latencies with no
// instrumentation and with a tracer plus metrics registry attached to
// every layer. The figures stay byte-identical because this holds.
func TestObservabilityDoesNotPerturbVirtualTime(t *testing.T) {
	for _, scheme := range []ptlelan4.Scheme{ptlelan4.RDMARead, ptlelan4.RDMAWrite} {
		for _, size := range []int{4, 512, 4096, 65536} {
			o := ptlelan4.BestOptions(scheme)
			spec := cluster.Spec{Elan: &o, Progress: pml.Polling}
			pp := experiments.PingPong{Size: size, Iters: 5, Warmup: experiments.Warmup}
			plain := pp.OpenMPI(spec)
			rec, reg := trace.NewRecorder(0), obs.New()
			pp.Tracer, pp.Metrics = rec, reg
			observed := pp.OpenMPI(spec)
			if observed.LatencyUS != plain.LatencyUS {
				t.Errorf("scheme %v size %d: latency %v with instrumentation, %v without",
					scheme, size, observed.LatencyUS, plain.LatencyUS)
			}
			if rec.Len() == 0 {
				t.Errorf("scheme %v size %d: instrumented run recorded nothing", scheme, size)
			}
			if reg.Snapshot().Total("pml", "sends") == 0 {
				t.Errorf("scheme %v size %d: metrics empty", scheme, size)
			}
		}
	}
}
