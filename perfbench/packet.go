package main

import (
	"fmt"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/linkmon"
	"drsnet/internal/netsim"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// stormDuration is fixed by the storm's fault timeline: the backplane
// fails at 5 s and returns at 20 s, the crash wave restarts at 8 s.
const stormDuration = 30 * time.Second

// packetCell is one simulation of a packet workload.
type packetCell struct {
	name     string
	spec     runtime.ClusterSpec
	budgeted bool
}

// ringSpec is a dual-rail hub cluster with one flow per node to its
// ring successor every 250 ms, as every drschaos campaign runs.
func ringSpec(nodes int, protocol string, seed uint64, d time.Duration) runtime.ClusterSpec {
	spec := runtime.ClusterSpec{Nodes: nodes, Protocol: protocol, Seed: seed, Duration: d}
	for n := 0; n < nodes; n++ {
		spec.Flows = append(spec.Flows, runtime.Flow{
			From: n, To: (n + 1) % nodes, Interval: 250 * time.Millisecond,
		})
	}
	return spec
}

// lsfloodCells are drschaos -mode loss's clean and 0.2-loss cells for
// the link-state protocol.
func lsfloodCells(cfg config) []packetCell {
	s := cfg.size
	clean := ringSpec(s.lsNodes, runtime.ProtoLinkState, cfg.seed, s.lsDuration)
	lossy := ringSpec(s.lsNodes, runtime.ProtoLinkState, cfg.seed, s.lsDuration)
	lossy.Impairments = []chaos.Spec{{
		Comp:   topology.Dual(s.lsNodes).Backplane(0),
		Impair: netsim.Impairment{Loss: 0.2},
	}}
	return []packetCell{{name: "loss=0", spec: clean}, {name: "loss=0.2", spec: lossy}}
}

// stormCells are drschaos -mode storm's cells: crash fractions 0 and
// 0.5, each with the overload budgets off and on.
func stormCells(cfg config) []packetCell {
	n := cfg.size.stormNodes
	cl := topology.Dual(n)
	var cells []packetCell
	for _, fraction := range []float64{0, 0.5} {
		for _, budgeted := range []bool{false, true} {
			spec := ringSpec(n, runtime.ProtoDRS, cfg.seed, stormDuration)
			spec.Tunables.AdaptiveRTO = linkmon.DefaultRTO()
			spec.Tunables.Lifecycle = true
			if budgeted {
				spec.Tunables.Overload = overload.Default()
			}
			spec.Faults = []runtime.Fault{
				{At: 5 * time.Second, Comp: cl.Backplane(0)},
				{At: 20 * time.Second, Comp: cl.Backplane(0), Restore: true},
			}
			// Node 0 always survives to measure from.
			k := int(fraction * float64(n))
			for node := 1; node <= k && node < n; node++ {
				spec.Crashes = append(spec.Crashes, chaos.CrashSpec{
					Node: node, At: 5 * time.Second, RestartAt: 8 * time.Second,
				})
			}
			cells = append(cells, packetCell{
				name:     fmt.Sprintf("fraction=%g budget=%v", fraction, budgeted),
				spec:     spec,
				budgeted: budgeted,
			})
		}
	}
	return cells
}

func runLSFlood(cfg config, tr *tracer) pass { return runPacket(cfg, tr, lsfloodCells) }
func runStorm(cfg config, tr *tracer) pass   { return runPacket(cfg, tr, stormCells) }

// cellDigest is the part of a cell's result its digest covers: every
// simulated output, but not the spec (a traced run names a wrapper
// protocol).
type cellDigest struct {
	Flows       []runtime.FlowResult
	Repairs     []runtime.Repair
	Counters    []map[string]int64
	Utilization []float64
	Trace       []trace.Event
	Events      uint64
	Segments    []netsim.SegmentStats
}

// packetTotals accumulates a pass's simulated outcomes over its cells.
type packetTotals struct {
	sent, delivered int
	outages         []float64
	nodeSeconds     float64
	simSeconds      float64
	events          int64
	build           time.Duration
	traceEvents     int
	framesSent      int64
	drops, frames   int64
	util            [2]float64
	maxRetrans      int64
}

// runPacket runs one pass of a runtime-built simulation workload. Set
// up is spec generation, Build, Start and the Schedule calls; the
// timed phase is RunUntil, in scheduler events.
func runPacket(cfg config, tr *tracer, gen func(config) []packetCell) pass {
	p := newPass(tr)
	var cells []packetCell
	p.setupPhase(func() { cells = gen(cfg) })
	var tot packetTotals
	for _, c := range cells {
		p.ops = append(p.ops, runCell(&p, &tot, c, tr))
	}
	p.units = tot.events

	p.layer = map[string]float64{
		"delivery_ratio":                ratio(float64(tot.delivered), float64(tot.sent)),
		"outage_s_p50":                  quantile(tot.outages, 0.5),
		"outage_s_p90":                  quantile(tot.outages, 0.9),
		"runtime.build_ms":              float64(tot.build.Microseconds()) / 1e3 / float64(len(cells)),
		"simtime.events_per_sim_s":      ratio(float64(tot.events), tot.simSeconds),
		"trace.events":                  float64(tot.traceEvents) / float64(len(cells)),
		"netsim.frames_sent":            float64(tot.framesSent),
		"netsim.drop_ratio":             ratio(float64(tot.drops), float64(tot.drops+tot.frames)),
		"netsim.util.rail0":             tot.util[0] / float64(len(cells)),
		"netsim.util.rail1":             tot.util[1] / float64(len(cells)),
		"overload.max_node_retransmits": float64(tot.maxRetrans),
	}
	if tr != nil {
		for k, v := range tr.layers("netsim", p.timed, tot.events) {
			p.layer[k] = v
		}
		p.layer["ctrl_frames_per_node_s"] = ratio(float64(tr.ctrlSent), tot.nodeSeconds)
	}
	return p
}

// runCell runs one cell, adding its host times to p and its outcomes
// to tot, and checks it.
func runCell(p *pass, tot *packetTotals, c packetCell, tr *tracer) op {
	o := op{name: c.name}
	spec := c.spec
	if tr != nil {
		spec.Protocol = tracedProtocols[spec.Protocol]
		active = tr
		defer func() { active = nil }()
	}
	var cl *runtime.Cluster
	var err error
	var build time.Duration
	p.setupPhase(func() {
		start := time.Now()
		if cl, err = runtime.Build(spec); err != nil {
			return
		}
		if err = cl.Start(); err != nil {
			return
		}
		build = time.Since(start)
		cl.ScheduleFlows()
		cl.ScheduleFaults()
		if err = cl.ScheduleImpairments(); err != nil {
			return
		}
		cl.ScheduleCrashes()
		cl.SchedulePartitions()
	})
	if err != nil {
		o.err = err
		return o
	}
	tot.build += build
	p.timedPhase(func() { cl.RunUntil(spec.Duration) })
	cl.StopRouters()
	if err := cl.LifecycleErr(); err != nil {
		o.err = err
		return o
	}
	res := cl.Finish()
	events := int64(cl.Scheduler().Executed())

	d := cellDigest{
		Flows:       res.Flows,
		Repairs:     res.Repairs,
		Counters:    res.Counters,
		Utilization: res.Utilization,
		Trace:       res.Trace.Events(),
		Events:      uint64(events),
	}
	for rail := 0; rail < cl.Spec().Rails; rail++ {
		st := cl.Net().Stats(rail)
		d.Segments = append(d.Segments, st)
		tot.framesSent += st.FramesSent
		tot.frames += st.FramesDelivered
		tot.drops += st.DroppedTxNIC + st.DroppedSegment + st.DroppedRxNIC + st.DroppedLoss +
			st.DroppedImpaired + st.DroppedNodeDown + st.DroppedPartitioned
		if rail < len(tot.util) {
			tot.util[rail] += res.Utilization[rail]
		}
	}
	o.digest = digest(d)

	tot.events += events
	tot.simSeconds += spec.Duration.Seconds()
	tot.nodeSeconds += float64(spec.Nodes) * spec.Duration.Seconds()
	tot.traceEvents += len(d.Trace)
	for _, f := range res.Flows {
		tot.sent += f.Sent
		tot.delivered += f.Delivered
		tot.outages = append(tot.outages, longestGap(f, spec.Duration).Seconds())
	}
	if c.budgeted {
		// The bucket admits at most rate×window+burst retransmits per
		// node over the run, the bound drschaos -mode storm asserts.
		cfg := spec.Tunables.Overload
		ceiling := int64(cfg.ProbeRate*spec.Duration.Seconds()) + int64(cfg.ProbeBurst)
		for node, m := range res.Counters {
			n := m[routing.CtrProbeRetransmits]
			if n > tot.maxRetrans {
				tot.maxRetrans = n
			}
			if n > ceiling && o.finding == "" {
				o.finding = fmt.Sprintf("node %d sent %d probe retransmits, over the budget ceiling %d", node, n, ceiling)
			}
		}
	}
	if tr != nil {
		tr.closeCell()
	}
	return o
}

// longestGap is a flow's longest stretch without a delivery, from its
// first send to the end of the run.
func longestGap(f runtime.FlowResult, end time.Duration) time.Duration {
	last := f.Flow.Start
	if last <= 0 {
		last = f.Flow.Interval
	}
	var gap time.Duration
	for _, at := range append(f.Deliveries, end) {
		if at-last > gap {
			gap = at - last
		}
		last = at
	}
	return gap
}
