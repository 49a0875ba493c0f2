package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"qsmpi/internal/obs"
	"qsmpi/internal/trace"
)

func TestGenerateDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 60)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations with seed 7 differ", name)
		}
		c, _ := generate(name, 8, 60)
		if reflect.DeepEqual(a.ops, c.ops) || bytes.Equal(a.block, c.block) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
	if _, err := generate("nosuch", 1, 0); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestPingPongSizeMix(t *testing.T) {
	w, _ := generate("pingpong", 3, 3000)
	eager := 0
	for _, o := range w.ops {
		if o.size < 0 || o.size > ppMaxSize {
			t.Fatalf("size %d outside [0, %d]", o.size, ppMaxSize)
		}
		if o.size <= 2048-64 {
			eager++
		}
	}
	// log2(1985)/log2(2^20+1) of a log-uniform draw is eager.
	if frac := float64(eager) / float64(len(w.ops)); frac < 0.53 || frac > 0.57 {
		t.Errorf("eager share %.3f, want about 0.55", frac)
	}
}

func TestTailPercentileHasTenBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		p, ok := tailPercentile(n)
		if n < 2*minBeyond {
			if ok {
				t.Fatalf("n=%d: tail p%g reported without ten samples beyond the median", n, p)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no tail percentile", n)
		}
		if beyond := n - nearestRank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g has %d samples beyond it", n, p, beyond)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, reverse order
		}
		v := percentile(xs, p)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above < minBeyond {
			t.Fatalf("n=%d: p%g = %g leaves %d samples above it", n, p, v, above)
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNamesMatchBenchmarkJSON checks every metric name's form and
// that the benchmark reports exactly the metrics BENCHMARK.json lists.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: benchmark reports %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: bad or repeated metric name %q", kind, d.name)
			}
			seen[d.name] = true
			if i < len(listed) && (listed[i].Name != d.name || listed[i].Unit != d.unit) {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// tinyOps keeps the end-to-end test runs small.
var tinyOps = map[string]int{"pingpong": 40, "alltoall": 6, "collectives": 6}

func TestTinyRunsCorrectAndStable(t *testing.T) {
	for _, name := range workloadNames {
		if name == "collectives" && testing.Short() {
			continue // 1024-rank clusters
		}
		w, _ := generate(name, 11, tinyOps[name])
		a, b := runTrial(w, observe{}), runTrial(w, observe{})
		if a.failed != 0 || b.failed != 0 || len(a.errs)+len(b.errs) != 0 {
			t.Errorf("%s: failed %d+%d of %d, errors %v %v", name, a.failed, b.failed, a.attempted, a.errs, b.errs)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: sim_digest %s then %s", name, a.digest(), b.digest())
		}
	}
}

func TestCorruptedPayloadFails(t *testing.T) {
	w, _ := generate("pingpong", 5, 10)
	s := newRankState(w, 1)
	for i := range w.ops {
		copy(s.recv[0], w.pattern(i, 0, 1, w.ops[i].size))
		if !s.check(i) {
			t.Fatalf("op %d: correct payload rejected", i)
		}
		if w.ops[i].size > 0 {
			s.recv[0][w.ops[i].size-1] ^= 1
			if s.check(i) {
				t.Fatalf("op %d: corrupted payload accepted", i)
			}
		}
	}
}

func TestTracedTrialMatchesUntraced(t *testing.T) {
	w, _ := generate("alltoall", 2, 4)
	plain, err := runChild(w, "plain")
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runChild(w, "traced")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*childReport{plain, traced} {
		if r.Failed != 0 || len(r.Errs) != 0 {
			t.Fatalf("%s trial failed %d of %d: %v", r.Mode, r.Failed, r.Attempted, r.Errs)
		}
	}
	if plain.Digest != traced.Digest {
		t.Errorf("tracing moved virtual time: digest %s untraced, %s traced", plain.Digest, traced.Digest)
	}
	// Between them the two trials measure every per-layer metric but the
	// ones the parent derives (overhead) or the collectives probe sets.
	for _, d := range perLayer {
		_, p := plain.Layer[d.name]
		_, q := traced.Layer[d.name]
		switch d.name {
		case "obs.overhead", "simtime.shard_drift_us", "simtime.shard_event_drift":
		default:
			if !p && !q {
				t.Errorf("no trial measures %s", d.name)
			}
		}
	}
	if traced.Layer["trace.events"] == 0 || traced.Layer["pml.unexpected"] == 0 {
		t.Errorf("traced alltoall saw no trace events or no unexpected messages: %v", traced.Layer)
	}
}

// TestCheckPhasesDroppedAnchor feeds checkPhases a real trace with one
// message's anchor events removed: a missing middle anchor only folds
// phases, a missing completion leaves the message's latency unexplained.
func TestCheckPhasesDroppedAnchor(t *testing.T) {
	w, _ := generate("pingpong", 4, 20)
	tr := &trial{}
	runHalf(w, false, observe{traced: true}, tr)
	evs := tr.halves[0].rec.Events()
	if bad, folded := checkPhases(obs.Analyze(evs), evs); bad != 0 || folded != 0 {
		t.Fatalf("complete trace: %d bad, %d folded messages", bad, folded)
	}
	var corr uint64
	for _, e := range evs {
		if e.Kind == trace.Matched {
			corr = e.Corr
			break
		}
	}
	drop := func(kind trace.Kind) []trace.Event {
		var out []trace.Event
		for _, e := range evs {
			if e.Corr != corr || e.Kind != kind {
				out = append(out, e)
			}
		}
		if len(out) == len(evs) {
			t.Fatalf("message %x has no %v event", corr, kind)
		}
		return out
	}
	mid := drop(trace.Matched)
	if bad, folded := checkPhases(obs.Analyze(mid), mid); bad != 0 || folded != 1 {
		t.Errorf("without Matched: %d bad, %d folded; want 0 and 1", bad, folded)
	}
	end := drop(trace.RecvCompleted)
	if bad, _ := checkPhases(obs.Analyze(end), end); bad != 1 {
		t.Errorf("without RecvCompleted: %d bad messages, want 1", bad)
	}
}

func TestProfileFlat(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	flat, err := profileFlat(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	named := false
	for fn, n := range flat {
		total += n
		named = named || strings.Contains(fn, "TestProfileFlat") || strings.HasPrefix(fn, "time.")
	}
	if total == 0 || !named {
		t.Errorf("profile of a busy loop decoded to %v (x=%d)", flat, x)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"qsmpi/internal/simtime.(*Kernel).run":    "simtime",
		"qsmpi/internal/ptlelan4.(*Module).Init":  "ptlelan4",
		"runtime.memmove":                         "goruntime",
		"internal/runtime/maps.(*Map).getWithKey": "goruntime",
		"main.runHalf":                            "",
		"sort.Float64s":                           "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
