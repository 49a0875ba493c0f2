package experiments

import (
	"fmt"
	"slices"
	"strings"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptltcp"
)

// Scenario is one registered simulator run. Every run cmd/perfbench
// times is listed once in Scenarios, and two consumers drive all of them
// the same way: TestScenarioIdentity runs each at -shards 1 and 4 and
// compares the outcomes bit for bit, and cmd/perfbench times each one.
// A scenario fixes its own workload parameters; Run reads only
// cfg.Shards and cfg.Workers.
type Scenario struct {
	Name string
	// Tags group scenarios for the consumers: "workload" (the simulator
	// throughput set), "shardscale" (also timed at 2 and 4 shards),
	// "collective", "overlap", "waitstate", "sampler" and "sweep" (a
	// parallel figure/claim sweep whose output must not depend on -j).
	Tags []string
	Run  func(cfg Config) Outcome
}

// Outcome is what one scenario run produced.
type Outcome struct {
	// SimUS is the headline simulated time: the mean latency of a
	// ping-pong or collective, the elapsed virtual time otherwise.
	SimUS float64
	// Events is the number of kernel events the run executed.
	Events int64
	// Text is the rendered result of scenarios that produce a report.
	Text string
}

// Has reports whether the scenario carries tag.
func (s Scenario) Has(tag string) bool { return slices.Contains(s.Tags, tag) }

// Scenarios is the registry, in the order the tools report it.
var Scenarios = scenarios()

func scenarios() []Scenario {
	var out []Scenario
	add := func(name string, run func(Config) Outcome, tags ...string) {
		out = append(out, Scenario{Name: name, Tags: tags, Run: run})
	}
	latency := func(r PingPongResult) Outcome {
		return Outcome{SimUS: r.LatencyUS, Events: r.Engine.SimEvents}
	}

	// Simulator throughput: the eager and rendezvous paths, the TCP PTL,
	// the datatype pack/unpack pools, and an all-to-all under contention.
	add("pingpong-eager-4B", func(cfg Config) Outcome {
		return latency(PingPong{Size: 4, Iters: 2000, Warmup: Warmup}.OpenMPI(bestRead(cfg.Shards)))
	}, "workload")
	add("pingpong-rndv-64KB", func(cfg Config) Outcome {
		return latency(PingPong{Size: 65536, Iters: 300, Warmup: Warmup}.OpenMPI(bestRead(cfg.Shards)))
	}, "workload")
	add("pingpong-tcp-4KB", func(cfg Config) Outcome {
		spec := cluster.Spec{TCP: &ptltcp.Options{}, Progress: pml.Polling, Shards: cfg.Shards}
		return latency(PingPong{Size: 4096, Iters: 500, Warmup: Warmup}.OpenMPI(spec))
	}, "workload")
	add("pingpong-vector-8KB", func(cfg Config) Outcome {
		spec := bestRead(cfg.Shards)
		spec.DTP = true
		r := PingPong{Iters: 300, Type: datatype.Vector(512, 16, 32, datatype.Contiguous(1))}.OpenMPI(spec)
		return Outcome{SimUS: r.ElapsedUS, Events: r.Engine.SimEvents}
	}, "workload")
	add("alltoall-8x4KB", func(cfg Config) Outcome {
		return allToAll(bestRead(cfg.Shards), 8, 4096, 10)
	}, "workload", "shardscale")

	// Collective offload: barrier and 8-byte allreduce over the host
	// software trees and the NIC combine trees, plus the 1024-rank
	// broadcast the NIC-tree harness covers.
	coll := func(op string, n int, nic bool) {
		tree := "host"
		if nic {
			tree = "nic"
		}
		add(fmt.Sprintf("%s-%d-%s", op, n, tree), func(cfg Config) Outcome {
			lat, m := cfg.collLatency(n, nic, op)
			return Outcome{SimUS: lat, Events: m.SimEvents}
		}, "collective")
	}
	for _, op := range []string{"barrier", "allreduce"} {
		for _, n := range []int{64, 256, 1024} {
			coll(op, n, false)
			coll(op, n, true)
		}
	}
	coll("bcast", 1024, true)

	// Overlap: sender overlap and receiver progress availability per
	// progress mode, below and above the rendezvous switch.
	for _, side := range []string{"send", "recv"} {
		for _, size := range []int{4096, 65536} {
			for _, mode := range overlapModes {
				add(fmt.Sprintf("overlap-%s-%s-%d", side, mode, size), func(cfg Config) Outcome {
					ratio, c := Config{Iters: 10, Warmup: 2, Shards: cfg.Shards}.overlapRatio(mode, 0, side == "recv", size)
					return Outcome{SimUS: c.Now().Micros(), Events: c.K.Steps(), Text: fmt.Sprintf("ratio %v", ratio)}
				}, "overlap")
			}
		}
	}

	// Telemetry: the wait-state report over the seeded scenarios plus
	// the sampler heatmaps, and the sampler's cost as an off/on pair of
	// the same seeded workload.
	add("waitstate-report", func(cfg Config) Outcome {
		ws, hm := WaitStateReport(cfg.Shards), HeatmapReport(8, 6, cfg.Shards, 72)
		return Outcome{Events: ws.Events + hm.Events, Text: ws.Text + "\n" + hm.Text}
	}, "waitstate")
	for _, on := range []bool{false, true} {
		name := "sampler-off-8x8"
		if on {
			name = "sampler-on-8x8"
		}
		add(name, func(cfg Config) Outcome {
			smp, rec, c := sampledRun(8, 8, cfg.Shards, on)
			o := Outcome{SimUS: c.Now().Micros(), Events: c.K.Steps()}
			if on {
				o.Text = fmt.Sprintf("%d ticks, %d trace events", smp.Ticks(), rec.Len())
			}
			return o
		}, "sampler")
	}

	// Sweeps: the replication report's claim measurements and the full
	// figure set, through the parallel sweep engine.
	sweep := func(name string, iters int, render func(Config) string) {
		add(name, func(cfg Config) Outcome {
			var st parsweep.Stats
			c := DefaultConfig().WithIters(iters)
			c.Workers, c.Shards, c.Stats = cfg.Workers, cfg.Shards, &st
			text := render(c)
			return Outcome{Events: st.Totals().SimEvents, Text: text}
		}, "sweep")
	}
	sweep("report-claims", 30, func(c Config) string {
		var b strings.Builder
		for _, cl := range Claims(c) {
			fmt.Fprintf(&b, "%s|%s|%v\n", cl.ID, cl.Measured, cl.Pass)
		}
		return b.String()
	})
	sweep("figures-all", 20, func(c Config) string {
		var b strings.Builder
		for _, r := range All(c) {
			b.WriteString(r.Render())
			for _, s := range r.Series {
				for _, p := range s.Points {
					fmt.Fprintf(&b, "%s/%s %d %x\n", r.ID, s.Name, p.Size, p.Value)
				}
			}
		}
		return b.String()
	})
	return out
}

// allToAll runs rounds of a procs-rank all-to-all exchange of size-byte
// messages, every receive and send posted before any is waited on, and
// reports the elapsed virtual time.
func allToAll(spec cluster.Spec, procs, size, rounds int) Outcome {
	dt := datatype.Contiguous(size)
	c := cluster.New(spec, procs)
	c.Launch(func(p *cluster.Proc) {
		buf := make([]byte, size)
		for i := 0; i < rounds; i++ {
			var sends []*pml.SendReq
			var recvs []*pml.RecvReq
			for peer := 0; peer < procs; peer++ {
				if peer == p.Rank {
					continue
				}
				recvs = append(recvs, p.Stack.Recv(p.Th, peer, i, 0, make([]byte, size), dt))
				sends = append(sends, p.Stack.Send(p.Th, peer, i, 0, buf, dt))
			}
			for _, r := range recvs {
				r.Wait(p.Th)
			}
			for _, s := range sends {
				s.Wait(p.Th)
			}
		}
	})
	mustRun(c)
	return Outcome{SimUS: c.Now().Micros(), Events: c.K.Steps()}
}
