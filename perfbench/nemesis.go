package main

import (
	"fmt"
	"time"

	"drsnet/internal/core"
	"drsnet/internal/nemesis"
	"drsnet/internal/runtime"
	"drsnet/internal/transport"
)

// nemesisConfig is drsnemesis's default campaign shape at the
// benchmark's node count: 4 episodes over a 10 s horizon, 2 s to
// settle, 100 ms probes.
func nemesisConfig(s size) nemesis.Config {
	return nemesis.Config{
		Nodes:         s.nemNodes,
		Episodes:      4,
		Horizon:       10 * time.Second,
		Settle:        2 * time.Second,
		ProbeInterval: 100 * time.Millisecond,
	}
}

// nemesisSeeds is the consecutive schedule seeds of workload seed n:
// n=1 runs schedules 1..S, n=2 runs S+1..2S, and so on.
func nemesisSeeds(seed uint64, s size) []uint64 {
	out := make([]uint64, s.nemSchedules)
	for i := range out {
		out[i] = (seed-1)*uint64(s.nemSchedules) + 1 + uint64(i)
	}
	return out
}

// outcomeDigest is what a schedule's digest covers.
type outcomeDigest struct {
	Violations []nemesis.Violation
	Faults     transport.FaultStats
	Statuses   []core.Status
}

// runNemesis generates and runs fault schedules against the hermetic
// live-daemon stack (manual clock.Wall, transport.Mem wrapped by
// transport.Faults). Set up is Generate for every schedule; the timed
// phase runs them, in frames delivered.
func runNemesis(cfg config, tr *tracer) pass {
	s := cfg.size
	seeds := nemesisSeeds(cfg.seed, s)
	p := newPass(tr)
	scheds := make([]nemesis.Schedule, len(seeds))
	p.setupPhase(func() {
		for i, seed := range seeds {
			scheds[i] = nemesis.Generate(seed, nemesisConfig(s))
		}
	})
	if tr != nil {
		for i := range scheds {
			scheds[i].Protocol = tracedProtocols[runtime.ProtoDRS]
		}
		active = tr
	}
	outs := make([]*nemesis.Outcome, len(scheds))
	errs := make([]error, len(scheds))
	p.timedPhase(func() {
		for i, sc := range scheds {
			outs[i], errs[i] = nemesis.Run(sc)
		}
	})
	active = nil

	var faults transport.FaultStats
	pairs, undelivered := 0, 0
	for i, out := range outs {
		o := op{name: fmt.Sprintf("schedule %d", seeds[i]), err: errs[i]}
		if out != nil {
			o.digest = digest(outcomeDigest{out.Violations, out.Faults, out.Statuses})
			if out.Failed() {
				o.finding = fmt.Sprintf("%d violations, first %s", len(out.Violations), out.Violations[0])
			}
			for _, v := range out.Violations {
				if v.Invariant == "delivery" {
					undelivered++
				}
			}
			pairs += s.nemNodes * (s.nemNodes - 1)
			faults.Delivered += out.Faults.Delivered
			faults.Partitioned += out.Faults.Partitioned
			faults.Dropped += out.Faults.Dropped
		}
		p.ops = append(p.ops, o)
	}
	p.units = faults.Delivered
	p.layer = map[string]float64{
		// The post-heal data-plane check: one datagram per ordered pair.
		"delivery_ratio":        1 - ratio(float64(undelivered), float64(pairs)),
		"transport.delivered":   float64(faults.Delivered),
		"transport.partitioned": float64(faults.Partitioned),
		"transport.dropped":     float64(faults.Dropped),
		"nemesis.generate_us":   float64(p.setup.Nanoseconds()) / 1e3 / float64(len(scheds)),
		"nemesis.run_ms":        float64(p.timed.Nanoseconds()) / 1e6 / float64(len(scheds)),
	}
	if tr != nil {
		for k, v := range tr.layers("transport", p.timed, 0) {
			p.layer[k] = v
		}
		// Each schedule runs its horizon, the settle window and the
		// data-plane check's delivery window (10 probe rounds).
		c := nemesisConfig(s)
		perRun := c.Horizon + c.Settle + 10*c.ProbeInterval
		p.layer["ctrl_frames_per_node_s"] = float64(tr.ctrlSent) /
			(float64(s.nemNodes*len(scheds)) * perRun.Seconds())
	}
	return p
}
