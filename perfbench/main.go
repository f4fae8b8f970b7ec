// Command perfbench is drsnet's end-to-end benchmark. One invocation
// runs one workload for a fixed host-time budget and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": 400, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 the same passes run again with timing
// decorators on the two seams every protocol is built on
// (routing.Transport and routing.Clock), and the metrics are the
// per-layer ones. README.md in this directory defines every metric;
// BENCHMARK.json at the repository root lists them with their units.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh -workload lsflood|storm|figure3|nemesis
//	    -seed n -seconds s -trace 0|1 [-cpuprofile f] [-memprofile f]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: lsflood, storm, figure3 or nemesis")
	seed := flags.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flags.Int("seconds", 20, "host seconds to measure for")
	traced := flags.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	cpuprofile := flags.String("cpuprofile", "", "write a CPU profile of the measured passes to this file")
	memprofile := flags.String("memprofile", "", "write a heap profile to this file when the run ends")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want lsflood, storm, figure3 or nemesis)\n", *name)
		return 2
	}
	if *seed == 0 {
		fmt.Fprintf(stderr, "perfbench: seed must be positive\n")
		return 2
	}
	if *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintf(stderr, "perfbench: need -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	cfg := config{seed: *seed, budget: time.Duration(*seconds) * time.Second, size: fullSize}
	var res result
	if *traced == 1 {
		res = measureTraced(w, cfg)
	} else {
		res = measure(w, cfg)
	}
	for _, msg := range res.notes {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *name, msg)
	}

	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	stamp, err := json.Marshal(map[string]any{"env": environment(*name, *seed, *traced)})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res.output())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", stamp, line)
	return 0
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line's schema.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
