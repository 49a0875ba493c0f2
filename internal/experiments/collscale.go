package experiments

import (
	"encoding/binary"
	"fmt"
	"math"

	"qsmpi/internal/cluster"
	"qsmpi/internal/datatype"
	"qsmpi/internal/mpi"
	"qsmpi/internal/parsweep"
	"qsmpi/internal/ptlelan4"
	"qsmpi/internal/simtime"
)

// Collective scaling (ROADMAP item 1): barrier and allreduce latency from
// 64 to 4096 ranks, host log-P software trees against the NIC-resident
// combine trees. The figure family follows the MPICH2-over-InfiniBand
// paper's scaling methodology — latency vs. rank count at a fixed small
// operand — with the NIC trees per Yu/Buntinas/Graham/Panda.

// collRanks are the x values of the scaling curves.
var collRanks = []int{64, 256, 1024, 4096}

// collIters returns (iters, warmup) for an n-rank point. The simulator is
// deterministic, so a couple of timed iterations per point suffice; the
// budget shrinks with rank count to keep the 4096-rank points tractable.
func collIters(n int) (iters, warmup int) {
	switch {
	case n >= 4096:
		return 2, 1
	case n >= 1024:
		return 3, 1
	default:
		return 4, 2
	}
}

// CollPeers is the restricted connection set for the collective-scaling
// harness (cluster.Spec.Peers): the union of every neighbourhood its
// collectives touch — the ± 2^d ring offsets the dissemination barrier
// and root-0 binomial trees exchange with, plus the NIC combine tree's
// parent and children. Symmetric by construction (±d covers both
// directions; HWCollPeers lists parent and children from both ends).
func CollPeers(rank, n int) []int {
	seen := map[int]bool{rank: true}
	var out []int
	add := func(p int) {
		if p >= 0 && p < n && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for d := 1; d < n; d *= 2 {
		add((rank + d) % n)
		add((rank - d + n) % n)
	}
	for _, p := range ptlelan4.HWCollPeers(rank, n) {
		add(p)
	}
	return out
}

// collLatency builds an n-rank cluster and measures the mean latency of
// one collective — "barrier", "bcast" (8 bytes from rank 0), or
// "allreduce" (8-byte float64 sum) — over the software trees (nic false)
// or the hardware paths (nic true). At large n under the restricted
// CollPeers topology the hardware broadcast uniformly refuses (it needs
// the full group connected) and bcast exercises the software binomial
// tree; barrier and allreduce ride the NIC combine tree at any n.
func (c Config) collLatency(n int, nic bool, op string) (float64, parsweep.Metrics) {
	iters, warmup := collIters(n)
	spec := bestRead(c.Shards)
	spec.HWColl = nic
	spec.Peers = CollPeers
	cl := cluster.New(spec, n)
	uni := mpi.NewUniverse()
	var total simtime.Duration
	cl.Launch(func(p *cluster.Proc) {
		w := mpi.NewWorld(p.Th, p.Stack, uni, p.Rank, n)
		if nic {
			w.SetHWColl(p.Elan)
		}
		comm := w.Comm()
		buf := make([]byte, 8)
		out := make([]byte, 8)
		dt := datatype.Contiguous(8)
		for i := 0; i < warmup+iters; i++ {
			start := p.Th.Now()
			switch op {
			case "allreduce":
				binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(p.Rank+i)))
				comm.Allreduce(buf, out, mpi.OpSumF64)
			case "bcast":
				if p.Rank == 0 {
					binary.LittleEndian.PutUint64(buf, uint64(i))
				}
				comm.Bcast(0, buf, dt)
			default:
				comm.Barrier()
			}
			if p.Rank == 0 && i >= warmup {
				total += p.Th.Now().Sub(start)
			}
		}
	})
	mustRun(cl)
	return total.Micros() / float64(iters), clusterMetrics(cl)
}

// CollScaleFigures produces the collective-scaling figure family:
// barrier and allreduce latency vs. rank count, host software trees vs.
// NIC combine trees.
func CollScaleFigures(cfg Config) []Result {
	fig := func(id, title, op string) Result {
		measure := func(nic bool) pointFn {
			return func(n int) (float64, parsweep.Metrics) {
				return cfg.collLatency(n, nic, op)
			}
		}
		return Result{
			ID:     id,
			Title:  title,
			XLabel: "ranks",
			YLabel: "latency us",
			Series: cfg.sweep([]seriesSpec{
				{name: "host tree", sizes: collRanks, measure: measure(false)},
				{name: "NIC tree", sizes: collRanks, measure: measure(true)},
			}),
		}
	}
	return []Result{
		fig("coll-barrier", "Barrier latency vs ranks, host vs NIC tree", "barrier"),
		fig("coll-allreduce", "Allreduce 8B latency vs ranks, host vs NIC tree", "allreduce"),
	}
}

// CollScaleClaims derives the offload verdicts from already-measured
// scaling figures (no extra simulation): at every rank count of 256 and
// above, the NIC tree must beat the host software tree.
func CollScaleClaims(figs []Result) []Claim {
	var claims []Claim
	for i := range figs {
		f := &figs[i]
		host := byName(f, "host tree")
		nic := byName(f, "NIC tree")
		for _, p := range host.Points {
			if p.Size < 256 {
				continue
			}
			nv := at(nic, p.Size)
			claims = append(claims, Claim{
				ID:    fmt.Sprintf("%s-%d", f.ID, p.Size),
				Paper: fmt.Sprintf("NIC tree beats host tree at %d ranks (%s)", p.Size, f.ID),
				Measured: fmt.Sprintf("host %.2fus vs NIC %.2fus (%.2fx)",
					p.Value, nv, p.Value/nv),
				Pass: nv < p.Value,
			})
		}
	}
	return claims
}
