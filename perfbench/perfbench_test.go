package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySize has every workload's shape at a size tests can afford.
var tinySize = size{
	lsNodes:      4,
	lsDuration:   3 * time.Second,
	stormNodes:   6,
	mcFailures:   []int{2, 3},
	mcNMax:       10,
	mcLadder:     []int64{10, 100, 1000},
	mcSample:     4,
	nemNodes:     4,
	nemSchedules: 2,
}

// tiny runs passes back to back: the budget only bounds the pass count
// from below (minPasses).
func tiny(seed uint64) config { return config{seed: seed, budget: time.Nanosecond, size: tinySize} }

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkJSON reads the metric declarations at the repository root.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	toMap := func(ds []declared) map[string]string {
		m := make(map[string]string)
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	return toMap(bench.EndToEnd), toMap(bench.PerLayer), names
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: metric %s has unit %q, want %q", what, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not declared in BENCHMARK.json", what, name)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs all four workloads at tiny size,
// untraced and traced, and checks each emits exactly the metrics
// BENCHMARK.json declares, with their units, and passes its checks.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, layers, names := benchmarkJSON(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, perfbench runs %d", names, len(workloads))
	}
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q has no implementation", name)
		}
		plain := measure(w, tiny(1))
		checkMetrics(t, name+" untraced", plain.metrics, endToEnd)
		for metric, m := range plain.metrics {
			if metric != "setup_s" && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", name, metric, m.Value)
			}
		}
		traced := measureTraced(w, tiny(1))
		checkMetrics(t, name+" traced", traced.metrics, layers)
		for _, r := range []result{plain, traced} {
			if !r.correct || r.attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d, notes %v", name, r.correct, r.attempted, r.notes)
			}
		}
	}
}

// TestDroppedFrameFailsTracedCheck: a decorator that swallows one
// frame changes the simulation, and the traced-equals-untraced check
// must catch it. (Not every frame matters: the rails duplicate boot
// announcements, so the test drops one well into steady traffic.)
func TestDroppedFrameFailsTracedCheck(t *testing.T) {
	for _, name := range []string{"lsflood", "storm"} {
		w := workloads[name]
		plain := w(tiny(1), nil)
		tr := newTracer()
		tr.dropFrame = 500
		lossy := w(tiny(1), tr)
		var r result
		r.correct = true
		r.tally([]pass{lossy}, plain.ops, "untraced run")
		if r.correct || r.failed == 0 {
			t.Errorf("%s: dropping frame %d went unnoticed (failed %d of %d)", name, tr.dropFrame, r.failed, r.attempted)
		}

		clean := w(tiny(1), newTracer())
		r = result{correct: true}
		r.tally([]pass{clean}, plain.ops, "untraced run")
		if !r.correct || r.failed != 0 {
			t.Errorf("%s: faithful tracer failed the check: %v", name, r.notes)
		}
	}
}

// TestNemesisViolationsCountAsFailures: schedule 11 of the 8-node
// campaign violates the post-heal incarnation invariant. The violation
// is counted in failed and fail_ratio, not hidden, while the
// measurement itself stays correct.
func TestNemesisViolationsCountAsFailures(t *testing.T) {
	cfg := tiny(11)
	cfg.size.nemNodes = 8
	cfg.size.nemSchedules = 1
	r := measureTraced(runNemesis, cfg)
	if !r.correct {
		t.Fatalf("measurement marked incorrect: %v", r.notes)
	}
	if r.failed == 0 || r.failed != r.attempted {
		t.Fatalf("failed %d of %d schedules, want all", r.failed, r.attempted)
	}
	if got := r.metrics["fail_ratio"].Value; got != 1 {
		t.Fatalf("fail_ratio = %v, want 1", got)
	}
	if !strings.Contains(strings.Join(r.notes, "\n"), "sees incarnation 1, peer is running 2") {
		t.Fatalf("notes do not name the violation: %v", r.notes)
	}
}

// TestResultLine checks the command's output contract: the result is
// the last line, with exactly the four keys.
func TestResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code == 0 {
		t.Fatalf("unknown workload accepted")
	}
	res := measure(runFigure3, tiny(2))
	line, err := json.Marshal(res.output())
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(keys), line)
	}
}
