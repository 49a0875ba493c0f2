// Benchmarks regenerating each table and figure of the paper's evaluation.
// Wall-clock numbers measure the simulator itself; the reproduced results
// are reported as custom "sim-us" / "sim-MB/s" metrics (simulated
// microseconds per half round trip, megabytes per second). Reduced sweeps
// keep bench iterations fast; cmd/elan4bench and cmd/ompibench print the
// full figures.
package qsmpi_test

import (
	"fmt"
	"strings"
	"testing"

	"qsmpi/internal/cluster"
	"qsmpi/internal/experiments"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// benchIters is the per-point timing iteration count used inside benches.
const benchIters = 20

// benchCfg is the reduced-sweep config the benches share. Workers is 1
// so wall numbers measure the simulator, not the sweep engine's fan-out.
func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig().WithIters(benchIters)
	cfg.Workers = 1
	return cfg
}

func reportSeries(b *testing.B, r *experiments.Result, unit string) {
	b.Helper()
	for _, s := range r.Series {
		last := s.Points[len(s.Points)-1]
		name := strings.ReplaceAll(s.Name, " ", "-")
		b.ReportMetric(last.Value, fmt.Sprintf("%s:%s@%dB", unit, name, last.Size))
	}
}

func BenchmarkFig7BasicRDMA(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(cfg, []int{4, 2048, 4096}, "bench")
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkFig8ChainedDMAAndCQ(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(cfg, experiments.Fig8Sizes)
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkFig9LayerCosts(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9(cfg, experiments.Fig9Sizes)
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkTable1AsyncProgress(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(cfg)
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkFig10Latency(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10(cfg, []int{0, 4, 1024}, "bench", false)
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkFig10Bandwidth(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10(cfg, []int{16384, 262144, 1048576}, "bench", true)
	}
	reportSeries(b, r, "sim-MB/s")
}

func BenchmarkAblationMultirail(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationMultirail(cfg)
	}
	reportSeries(b, r, "sim-MB/s")
}

func BenchmarkAblationHWBcast(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationHWBcast(cfg)
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkAblationEagerThreshold(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationEagerThreshold(cfg)
	}
	reportSeries(b, r, "sim-us")
}

func BenchmarkAblationFatTreeScale(b *testing.B) {
	cfg := benchCfg()
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.AblationFatTreeScale(cfg)
	}
	reportSeries(b, r, "sim-us")
}

// BenchmarkSimulatorThroughput measures the raw simulator: events executed
// per wall second while running back-to-back 4-byte ping-pongs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := cluster.Spec{Elan: func() *ptlelan4.Options {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		return &o
	}(), Progress: pml.Polling}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		ev := experiments.PingPong{Size: 4, Iters: 100, Warmup: experiments.Warmup}.OpenMPI(spec).Engine.SimEvents
		events += ev
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimulatorThroughputRndv is the rendezvous-path counterpart:
// 64 KiB ping-pongs over the RDMA-read scheme, exercising chunked RDMA,
// FIN traffic and the staging-buffer pools.
func BenchmarkSimulatorThroughputRndv(b *testing.B) {
	spec := cluster.Spec{Elan: func() *ptlelan4.Options {
		o := ptlelan4.BestOptions(ptlelan4.RDMARead)
		return &o
	}(), Progress: pml.Polling}
	b.ReportAllocs()
	var events int64
	for i := 0; i < b.N; i++ {
		ev := experiments.PingPong{Size: 65536, Iters: 20, Warmup: experiments.Warmup}.OpenMPI(spec).Engine.SimEvents
		events += ev
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
