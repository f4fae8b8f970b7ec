package main

import (
	"fmt"
	"time"

	"drsnet/internal/conn"
	"drsnet/internal/montecarlo"
	"drsnet/internal/rng"
	"drsnet/internal/survival"
	"drsnet/internal/topology"
)

// runFigure3 runs the paper's Figure 3: Monte Carlo P[Success] for
// every (f, N) cell at each rung of the iteration ladder, against the
// analytic model. Set up is the cold Figure 2 analytic reference; the
// timed phase is montecarlo.Convergence, in Monte Carlo trials.
func runFigure3(cfg config, tr *tracer) pass {
	s := cfg.size
	p := newPass(tr)
	p.setupPhase(func() {
		survival.ResetCaches()
		for _, f := range s.mcFailures {
			survival.Series(f, f+1, s.mcNMax)
		}
	})
	seriesMs := float64(p.setup.Microseconds()) / 1e3

	mc := montecarlo.ConvergenceConfig{
		Failures:   s.mcFailures,
		NMax:       s.mcNMax,
		Iterations: s.mcLadder,
		Seed:       cfg.seed,
		Workers:    1,
	}
	var series []montecarlo.ConvergenceSeries
	var err error
	p.timedPhase(func() { series, err = montecarlo.Convergence(mc) })
	top := s.mcLadder[len(s.mcLadder)-1]
	for _, f := range s.mcFailures {
		p.units += int64(s.mcNMax-f) * top
	}
	if err != nil {
		p.ops = []op{{name: "convergence", err: err}}
		return p
	}

	// One operation per f curve, plus the f-averaged curve, which must
	// fall at every rung.
	avg := make([]float64, len(s.mcLadder))
	for _, c := range series {
		p.ops = append(p.ops, op{name: fmt.Sprintf("f=%d", c.F), digest: digest(c)})
		for r, v := range c.MAD {
			avg[r] += v / float64(len(series))
		}
	}
	mean := op{name: "f-averaged MAD", digest: digest(avg)}
	for r := 1; r < len(avg); r++ {
		if avg[r] >= avg[r-1] {
			mean.err = fmt.Errorf("MAD %g at %d iterations does not fall below %g at %d",
				avg[r], s.mcLadder[r], avg[r-1], s.mcLadder[r-1])
			break
		}
	}
	p.ops = append(p.ops, mean)
	p.layer = map[string]float64{
		"mc_mad":             avg[len(avg)-1],
		"survival.series_ms": seriesMs,
	}
	if tr != nil {
		replayMonteCarlo(cfg, p.layer)
	}
	return p
}

// replayMonteCarlo times montecarlo.Estimate on every mcSample-th
// (f, N) cell, and replays that cell's Convergence draws through
// rng.SampleK and conn.Evaluator.PairConnected.
func replayMonteCarlo(cfg config, m map[string]float64) {
	s := cfg.size
	top := s.mcLadder[len(s.mcLadder)-1]
	var estimate, sample, evaluate time.Duration
	var cells, draws int64
	i := 0
	for _, f := range s.mcFailures {
		for n := f + 1; n <= s.mcNMax; n++ {
			i++
			if i%s.mcSample != 0 {
				continue
			}
			cl := topology.Dual(n)
			start := time.Now()
			if _, err := montecarlo.Estimate(montecarlo.Config{
				Cluster: cl, Failures: f, Iterations: top, Seed: cfg.seed, Workers: 1,
			}); err != nil {
				continue
			}
			estimate += time.Since(start)
			cells++

			// Convergence's stream for this cell (montecarlo.runCell).
			stream := func() *rng.Source { return rng.New(cfg.seed).Split(uint64(f)<<32 | uint64(n)) }
			comps := cl.Components()
			idx := make([]int, f)
			src := stream()
			start = time.Now()
			for it := int64(0); it < top; it++ {
				src.SampleK(idx, comps)
			}
			sample += time.Since(start)

			failed := make([]topology.Component, top*int64(f))
			src = stream()
			for it := int64(0); it < top; it++ {
				src.SampleK(idx, comps)
				for j, v := range idx {
					failed[it*int64(f)+int64(j)] = topology.Component(v)
				}
			}
			eval, err := conn.NewEvaluator(cl)
			if err != nil {
				continue
			}
			start = time.Now()
			for it := int64(0); it < top; it++ {
				pairSink = eval.PairConnected(failed[it*int64(f):(it+1)*int64(f)], 0, 1)
			}
			evaluate += time.Since(start)
			draws += top
		}
	}
	m["montecarlo.cell_ms"] = perCall(estimate, cells) / 1e6
	m["rng.samplek_ns"] = perCall(sample, draws)
	m["conn.pair_connected_ns"] = perCall(evaluate, draws)
}
