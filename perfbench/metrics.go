package main

// perLayer is every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports it as 0.
// BENCHMARK.json at the repository root lists the same names; the
// tests check the two agree.
var perLayer = map[string]string{
	// Outcomes of the simulated system, deterministic per seed.
	"fail_ratio":             "1",
	"delivery_ratio":         "1",
	"outage_s_p50":           "sim_s",
	"outage_s_p90":           "sim_s",
	"ctrl_frames_per_node_s": "1/sim_s",
	"mc_mad":                 "1",
	"trace.overhead_ratio":   "1",

	"runtime.build_ms":          "ms",
	"simtime.events_per_sim_s":  "1/sim_s",
	"simtime.loop_ns_per_event": "ns",
	"simtime.loop_share":        "1",

	"clock.arm_ns":       "ns",
	"clock.timers":       "count",
	"clock.cancel_ratio": "1",
	"clock.arm_share":    "1",

	"netsim.send_ns":     "ns",
	"netsim.send_share":  "1",
	"netsim.frames_sent": "count",
	"netsim.drop_ratio":  "1",
	"netsim.util.rail0":  "1",
	"netsim.util.rail1":  "1",

	"transport.send_ns":     "ns",
	"transport.send_share":  "1",
	"transport.delivered":   "count",
	"transport.partitioned": "count",
	"transport.dropped":     "count",

	"router.rx_self_ns":    "ns",
	"router.rx_frames":     "count",
	"router.rx_share":      "1",
	"router.timer_self_ns": "ns",
	"router.timer_fires":   "count",
	"router.timer_share":   "1",

	"wire.rx.icmp":           "count",
	"wire.rx.hello":          "count",
	"wire.rx.rejoin":         "count",
	"wire.rx.query":          "count",
	"wire.rx.offer":          "count",
	"wire.rx.lshello":        "count",
	"wire.rx.lsa":            "count",
	"wire.rx.data":           "count",
	"wire.rx.other":          "count",
	"wire.rx_bytes.icmp":     "B",
	"wire.rx_bytes.hello":    "B",
	"wire.rx_bytes.rejoin":   "B",
	"wire.rx_bytes.query":    "B",
	"wire.rx_bytes.offer":    "B",
	"wire.rx_bytes.lshello":  "B",
	"wire.rx_bytes.lsa":      "B",
	"wire.rx_bytes.data":     "B",
	"wire.rx_bytes.other":    "B",
	"wire.lsa_decode_ns":     "ns",
	"wire.lsa_decode_allocs": "1",
	"wire.data_decode_ns":    "ns",

	"linkstate.lsa_rx":          "count",
	"linkstate.lsa_fresh_ratio": "1",
	"linkstate.adverts_sent":    "count",

	"core.probes_sent":          "count",
	"core.routes_repaired":      "count",
	"linkmon.probe_retransmits": "count",
	"linkmon.links_down":        "count",
	"routetable.queries_sent":   "count",
	"routetable.offers_sent":    "count",

	"overload.shed":                 "count",
	"overload.deferred":             "count",
	"overload.degraded":             "count",
	"overload.max_node_retransmits": "count",

	"dataplane.forwarded":      "count",
	"dataplane.dropped":        "count",
	"dataplane.noroute":        "count",
	"dataplane.queue_overflow": "count",

	"metrics.lookup_ns": "ns",
	"trace.events":      "count",

	"survival.series_ms":     "ms",
	"montecarlo.cell_ms":     "ms",
	"conn.pair_connected_ns": "ns",
	"rng.samplek_ns":         "ns",
	"nemesis.generate_us":    "us",
	"nemesis.run_ms":         "ms",
}
