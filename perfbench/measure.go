package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// minPasses is the fewest passes a run makes, whatever its budget: the
// first is a warm-up that only the correctness checks use, and host
// medians need at least three more.
const minPasses = 4

// config is what one workload pass depends on.
type config struct {
	seed   uint64
	budget time.Duration
	size   size
}

// size scales every workload. fullSize is what the benchmark runs;
// tests run a tiny one of the same shape.
type size struct {
	lsNodes    int
	lsDuration time.Duration

	stormNodes int

	mcFailures []int
	mcNMax     int
	mcLadder   []int64
	// mcSample is the stride over (f, N) cells the traced run times
	// montecarlo.Estimate and the conn/rng replays on.
	mcSample int

	nemNodes     int
	nemSchedules int
}

var fullSize = size{
	lsNodes:      24,
	lsDuration:   20 * time.Second,
	stormNodes:   64,
	mcFailures:   []int{2, 3, 4, 5, 6, 7, 8, 9, 10},
	mcNMax:       63,
	mcLadder:     []int64{10, 100, 1000, 10000},
	mcSample:     16,
	nemNodes:     8,
	nemSchedules: 100,
}

// workload runs one pass: every operation of the workload once. With
// tr non-nil the pass runs through the tracing decorators and also
// reports the seam metrics.
type workload func(cfg config, tr *tracer) pass

var workloads = map[string]workload{
	"lsflood": runLSFlood,
	"storm":   runStorm,
	"figure3": runFigure3,
	"nemesis": runNemesis,
}

// op is the outcome of one operation: a simulation cell, a Monte Carlo
// series or a nemesis schedule.
type op struct {
	name string
	// digest fingerprints the operation's simulated outputs; a repeat
	// or a traced run of the same operation must reproduce it.
	digest string
	// err means the operation could not run or produced an invalid
	// result: the measurement cannot be trusted.
	err error
	// finding names a system invariant the run violated. It fails the
	// operation without making the measurement untrustworthy.
	finding string
}

// pass is one run of every operation of a workload.
type pass struct {
	ops []op
	// setup and timed are host times; bytes and mallocs are the heap
	// allocation deltas of the timed phase; units is the work it did.
	setup, timed   time.Duration
	bytes, mallocs uint64
	units          int64
	reps           int
	// layer holds the per-layer metrics this pass measured.
	layer map[string]float64
}

// setupReps is how many times an untraced pass repeats each set-up
// step, keeping the median: set-up steps take milliseconds or less, so
// one timing of each would be mostly noise. A step must be repeatable;
// the last repetition's result is the one the pass uses. A traced pass
// sets up once, so the tracer sees only the clusters that run.
const setupReps = 7

func newPass(tr *tracer) pass {
	if tr != nil {
		return pass{reps: 1}
	}
	return pass{reps: setupReps}
}

func (p *pass) setupPhase(fn func()) {
	times := make([]float64, p.reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start))
	}
	p.setup += time.Duration(quantile(times, 0.5))
}

func (p *pass) timedPhase(fn func()) {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	start := time.Now()
	fn()
	p.timed += time.Since(start)
	goruntime.ReadMemStats(&after)
	p.bytes += after.TotalAlloc - before.TotalAlloc
	p.mallocs += after.Mallocs - before.Mallocs
}

func (p pass) nsPerUnit() float64 {
	return ratio(float64(p.timed.Nanoseconds()), float64(p.units))
}

// digest fingerprints any JSON-encodable value.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err)) // only plain data is digested
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// result is one run's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric
	notes             []string
	noted             map[string]bool
	// opFailed marks, by index, the operations that failed a check in
	// any pass.
	opFailed []bool
}

func (r result) output() output {
	return output{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// tally checks every pass's operations against the reference pass.
// what names the comparison in notes. An operation is counted once
// however many passes repeat it, and fails if any repetition fails a
// check, so attempted and failed depend on the seed alone, not on how
// many passes fit the time budget.
func (r *result) tally(passes []pass, ref []op, what string) {
	note := func(msg string) {
		if r.noted == nil {
			r.noted = make(map[string]bool)
		}
		if !r.noted[msg] {
			r.noted[msg] = true
			r.notes = append(r.notes, msg)
		}
	}
	for _, p := range passes {
		for i, o := range p.ops {
			for len(r.opFailed) <= i {
				r.opFailed = append(r.opFailed, false)
			}
			switch {
			case o.err != nil:
				r.opFailed[i] = true
				r.correct = false
				note(fmt.Sprintf("%s: %v", o.name, o.err))
			case i >= len(ref) || ref[i].err != nil || o.digest != ref[i].digest:
				r.opFailed[i] = true
				r.correct = false
				note(fmt.Sprintf("%s: outputs differ from the %s", o.name, what))
			case o.finding != "":
				r.opFailed[i] = true
				note(fmt.Sprintf("%s: %s", o.name, o.finding))
			}
		}
	}
	r.attempted, r.failed = len(r.opFailed), 0
	for _, bad := range r.opFailed {
		if bad {
			r.failed++
		}
	}
}

// runPasses runs passes of w until the budget would be overrun by one
// more, and at least minPasses of them. traced reports, per pass,
// whether it runs through the tracer.
func runPasses(w workload, cfg config, traced func(i int) bool) []pass {
	start := time.Now()
	var passes []pass
	var longest time.Duration
	for {
		i := len(passes)
		var tr *tracer
		if traced(i) {
			tr = newTracer()
		}
		began := time.Now()
		passes = append(passes, w(cfg, tr))
		if d := time.Since(began); d > longest {
			longest = d
		}
		if len(passes) >= minPasses && time.Since(start)+longest > cfg.budget {
			return passes
		}
	}
}

// measure is the untraced run: end-to-end metrics. Pass 0 is a warm-up
// excluded from the host medians; every pass is checked against it.
func measure(w workload, cfg config) result {
	passes := runPasses(w, cfg, func(int) bool { return false })
	r := result{correct: true}
	r.tally(passes, passes[0].ops, "first pass")
	timed := passes[1:]
	r.metrics = map[string]metric{
		"setup_s":          {median(timed, func(p pass) float64 { return p.setup.Seconds() }), "s"},
		"ns_per_event":     {median(timed, pass.nsPerUnit), "ns"},
		"bytes_per_event":  {median(timed, func(p pass) float64 { return ratio(float64(p.bytes), float64(p.units)) }), "B"},
		"allocs_per_event": {median(timed, func(p pass) float64 { return ratio(float64(p.mallocs), float64(p.units)) }), "1"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
	return r
}

// measureTraced is the traced run: untraced and traced passes
// alternate (an untraced warm-up first). Traced outputs must equal the
// untraced ones; the per-layer metrics are medians over traced passes,
// and the ns-per-event ratio of the two kinds is the tracing overhead.
func measureTraced(w workload, cfg config) result {
	passes := runPasses(w, cfg, func(i int) bool { return i%2 == 1 })
	var plain, traced []pass
	for i, p := range passes {
		if i%2 == 1 {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	r := result{correct: true}
	r.tally(plain, plain[0].ops, "first untraced pass")
	r.tally(traced, plain[0].ops, "untraced run")

	r.metrics = make(map[string]metric, len(perLayer))
	for name, unit := range perLayer {
		r.metrics[name] = metric{median(traced, func(p pass) float64 { return p.layer[name] }), unit}
	}
	r.metrics["fail_ratio"] = metric{float64(r.failed) / float64(r.attempted), perLayer["fail_ratio"]}
	overhead := ratio(median(traced, pass.nsPerUnit), median(plain[1:], pass.nsPerUnit)) - 1
	r.metrics["trace.overhead_ratio"] = metric{overhead, perLayer["trace.overhead_ratio"]}
	return r
}

func median(passes []pass, f func(pass) float64) float64 {
	vs := make([]float64, len(passes))
	for i, p := range passes {
		vs[i] = f(p)
	}
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation
// between order statistics.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// environment is the stamp printed beside every result.
func environment(name string, seed uint64, traced int) map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"trace":      traced,
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"go":         goruntime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
