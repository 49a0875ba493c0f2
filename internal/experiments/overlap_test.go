package experiments

import (
	"strings"
	"testing"
)

// overlapTestConfig keeps the golden sweeps cheap: the simulator is
// deterministic, so a handful of iterations per point is exact.
func overlapTestConfig() Config {
	return Config{Iters: 4, Warmup: 1}
}

func renderFigs(figs []Result) string {
	var b strings.Builder
	for _, f := range figs {
		b.WriteString(f.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// TestOverlapRatioBounds is the golden bound: the overlap ratio is a
// fraction on every path — every mode, both sides, eager and forced
// rendezvous.
func TestOverlapRatioBounds(t *testing.T) {
	figs := OverlapFigures(overlapTestConfig())
	if len(figs) != 3 {
		t.Fatalf("overlap family has %d figures, want 3", len(figs))
	}
	for _, f := range figs {
		for _, s := range f.Series {
			for _, p := range s.Points {
				if p.Value < 0 || p.Value > 1 {
					t.Errorf("%s / %s @ %d: ratio %v outside [0,1]",
						f.ID, s.Name, p.Size, p.Value)
				}
			}
		}
	}
	for _, c := range OverlapClaims(figs) {
		if !c.Pass {
			t.Errorf("claim %s failed: %s", c.ID, c.Measured)
		}
	}
}

// TestOverlapAvailabilityThreads pins the paper's Table 1 story at the
// 64 KB rendezvous point: the two-queue configuration with two progress
// threads must keep the arriving rendezvous advancing under compute at
// least as well as single-queue polling Basic does.
func TestOverlapAvailabilityThreads(t *testing.T) {
	cfg := overlapTestConfig()
	basic, _ := cfg.overlapRatio("basic", 0, true, 65536)
	twoT, _ := cfg.overlapRatio("two-threads", 0, true, 65536)
	if twoT < basic {
		t.Errorf("availability at 64KB: two-threads %v < basic %v", twoT, basic)
	}
	// The gap is the whole point of asynchronous progress: polling Basic
	// only progresses inside Wait, so it should be visibly worse.
	if twoT < 0.5 {
		t.Errorf("two-threads availability %v implausibly low", twoT)
	}
}

// TestOverlapShardAndWorkerIdentity is the determinism gate the nightly
// overlap-smoke byte-diff relies on: the rendered figure family is
// byte-identical whether the measurement clusters run on the sequential
// kernel or sharded, and whether the sweep engine uses 1 worker or many.
func TestOverlapShardAndWorkerIdentity(t *testing.T) {
	cfg := overlapTestConfig()
	cfg.Workers = 1
	want := renderFigs(OverlapFigures(cfg))
	for _, alt := range []Config{
		{Iters: 4, Warmup: 1, Workers: 4},
		{Iters: 4, Warmup: 1, Workers: 1, Shards: 2},
		{Iters: 4, Warmup: 1, Workers: 4, Shards: 4},
	} {
		got := renderFigs(OverlapFigures(alt))
		if got != want {
			t.Errorf("figures differ at workers=%d shards=%d",
				alt.Workers, alt.Shards)
		}
	}
}

// TestObservedOverlapTelemetry checks the representative instrumented
// rerun actually surfaces the progress-engine telemetry:
// the duty-cycle counters in the metrics snapshot and the NBC schedule
// events in the trace.
func TestObservedOverlapTelemetry(t *testing.T) {
	rec, snap := observedOverlap("two-threads", 4096, 3, 1, 0)
	rendered := snap.Render()
	for _, metric := range []string{
		"progress_polls", "progress_us", "idle_us", "tests",
		"recvq_depth", "cq_depth", "host_busy_us",
	} {
		if !strings.Contains(rendered, metric) {
			t.Errorf("metrics snapshot missing %q", metric)
		}
	}
	var posted, completed, duty int
	for _, e := range rec.Events() {
		switch e.Kind.String() {
		case "nbc-posted":
			posted++
		case "nbc-completed":
			completed++
		case "progress-duty":
			duty++
		}
	}
	if posted == 0 || posted != completed {
		t.Errorf("NBC spans unbalanced: %d posted, %d completed", posted, completed)
	}
	if duty == 0 {
		t.Error("no progress-duty counter samples recorded")
	}
}
