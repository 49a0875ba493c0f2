package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qsmpi/internal/parsweep"
	"qsmpi/internal/pml"
	"qsmpi/internal/ptlelan4"
)

// renderAll renders every figure and table under a worker count, with
// full-precision values appended so comparisons are bit-exact, not
// rounded-display-exact.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	cfg := DefaultConfig().WithIters(5)
	cfg.Workers = workers
	var sb strings.Builder
	for _, r := range All(cfg) {
		sb.WriteString(r.Render())
		sb.WriteString(r.CSV())
		for _, s := range r.Series {
			for _, p := range s.Points {
				fmt.Fprintf(&sb, "%s/%s %d %x\n", r.ID, s.Name, p.Size, p.Value)
			}
		}
	}
	return sb.String()
}

// TestAllByteIdenticalAcrossWorkers pins the sweep engine's determinism
// invariant: the full figure set renders byte-identically at -j 1, -j 2
// and -j GOMAXPROCS. Sharding independent simulations across workers may
// change wall-clock only, never a simulated microsecond.
func TestAllByteIdenticalAcrossWorkers(t *testing.T) {
	seq := renderAll(t, 1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if par := renderAll(t, w); par != seq {
			t.Errorf("workers=%d output diverged from sequential:\n--- j=1 ---\n%s\n--- j=%d ---\n%s",
				w, seq, w, par)
		}
	}
}

// TestClaimsByteIdenticalAcrossWorkers does the same for the replication
// report's claim rows (cmd/report's output body).
func TestClaimsByteIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		cfg := DefaultConfig().WithIters(10)
		cfg.Workers = workers
		var sb strings.Builder
		for _, c := range Claims(cfg) {
			fmt.Fprintf(&sb, "%s|%s|%s|%v\n", c.ID, c.Paper, c.Measured, c.Pass)
		}
		return sb.String()
	}
	seq := render(1)
	for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
		if par := render(w); par != seq {
			t.Errorf("claims diverged at workers=%d:\n%s\nvs sequential:\n%s", w, par, seq)
		}
	}
}

// TestConcurrentSimulationsShareNothing runs two complete simulations on
// bare goroutines (no engine in between) and checks they reproduce the
// sequential result. Under `go test -race` this is the proof that no
// package-level state — route memos, bufpool free lists, NIC or kernel
// internals — leaks between concurrently running kernels.
func TestConcurrentSimulationsShareNothing(t *testing.T) {
	spec := elanSpec(ptlelan4.BestOptions(ptlelan4.RDMARead), false, pml.Polling)
	tcpSpec := elanSpec(base(ptlelan4.RDMAWrite), true, pml.Polling)
	a := PingPong{Size: 4096, Iters: 30, Warmup: Warmup}
	b := PingPong{Size: 512, Iters: 30, Warmup: Warmup}
	wantA, wantB := a.OpenMPI(spec), b.OpenMPI(tcpSpec)
	for round := 0; round < 3; round++ {
		var gotA, gotB PingPongResult
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); gotA = a.OpenMPI(spec) }()
		go func() { defer wg.Done(); gotB = b.OpenMPI(tcpSpec) }()
		wg.Wait()
		if gotA != wantA || gotB != wantB {
			t.Fatalf("concurrent round %d diverged: %v/%v, want %v/%v",
				round, gotA, gotB, wantA, wantB)
		}
	}
}

// TestSweepStatsAccumulate checks the observability surface: a config
// with a Stats sink reports jobs, simulated events and pool traffic.
func TestSweepStatsAccumulate(t *testing.T) {
	var st parsweep.Stats
	cfg := DefaultConfig().WithIters(5)
	cfg.Workers = 2
	cfg.Stats = &st
	Fig7(cfg, []int{4, 4096}, "stats")
	if st.Jobs() != 12 {
		t.Errorf("6 series x 2 sizes should be 12 jobs, got %d", st.Jobs())
	}
	m := st.Totals()
	if m.SimEvents <= 0 {
		t.Error("no simulated events reported")
	}
	if m.PoolGets <= 0 || m.PoolHits <= 0 {
		t.Errorf("pool counters not aggregated: %+v", m)
	}
	if st.Runs != 1 {
		t.Errorf("one sweep should be one engine run, got %d", st.Runs)
	}
	if got := st.PoolHitRate(); got <= 0 || got > 1 {
		t.Errorf("pool hit rate %v out of range", got)
	}
}
