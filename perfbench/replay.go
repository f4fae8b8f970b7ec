package main

import (
	"runtime"
	"time"

	"drsnet/internal/metrics"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
)

// replayMin is the least host time one replay sweep is repeated for,
// so a per-call figure rests on many calls even for a small capture.
const replayMin = 20 * time.Millisecond

// lookupReps is how many times each router's counter names are
// resolved in the metrics.Set lookup replay.
const lookupReps = 20

// Sinks keep the compiler from discarding replayed calls.
var (
	lsaSink     wire.LSA
	dataSink    wire.DataHeader
	counterSink *metrics.Counter
	pairSink    bool
)

// timeEach runs fn over every item, repeating the sweep for at least
// replayMin, and returns host ns and heap allocations per call.
func timeEach(items [][]byte, fn func([]byte)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < replayMin {
		for _, it := range items {
			fn(it)
		}
		calls += len(items)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(calls),
		float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// replayCodecs times the public decoders on the frames the traced run
// captured from real traffic.
func (t *tracer) replayCodecs(m map[string]float64) {
	m["wire.lsa_decode_ns"], m["wire.lsa_decode_allocs"], m["wire.data_decode_ns"] = 0, 0, 0
	if items := t.lsaBodies.items; len(items) > 0 {
		m["wire.lsa_decode_ns"], m["wire.lsa_decode_allocs"] = timeEach(items, func(b []byte) {
			lsaSink, _ = wire.UnmarshalLSA(b)
		})
	}
	if items := t.dataBodies.items; len(items) > 0 {
		m["wire.data_decode_ns"], _ = timeEach(items, func(b []byte) {
			dataSink, _, _ = wire.UnmarshalData(b)
		})
	}
}

// counterTotals sums the routers' counters and replays metrics.Set
// lookups over each router's own counter names, on its own Set. It
// returns the summed counters and the host ns per lookup.
func counterTotals(routers []routing.Router) (map[string]int64, time.Duration, int64) {
	sum := make(map[string]int64)
	var elapsed time.Duration
	var lookups int64
	for _, r := range routers {
		set := r.Metrics()
		for name, v := range set.Snapshot() {
			sum[name] += v
		}
		names := set.Names()
		start := time.Now()
		for rep := 0; rep < lookupReps; rep++ {
			for _, name := range names {
				counterSink = set.Counter(name)
			}
		}
		elapsed += time.Since(start)
		lookups += int64(lookupReps * len(names))
	}
	return sum, elapsed, lookups
}

// counterLayers maps summed router counters onto the per-layer
// metrics of the DRS stack, the link-state baseline and the dataplane.
func counterLayers(c map[string]int64, m map[string]float64) {
	for metric, ctrs := range map[string][]string{
		"core.probes_sent":          {routing.CtrProbesSent},
		"core.routes_repaired":      {routing.CtrRepairs},
		"linkmon.probe_retransmits": {routing.CtrProbeRetransmits},
		"linkmon.links_down":        {routing.CtrLinkDown},
		"routetable.queries_sent":   {routing.CtrQueriesSent},
		"routetable.offers_sent":    {routing.CtrOffersSent},
		"overload.shed":             {routing.CtrProbeShed, routing.CtrQueryShed},
		"overload.deferred":         {routing.CtrCtrlDeferred},
		"overload.degraded":         {routing.CtrDegradedEnter},
		"dataplane.forwarded":       {routing.CtrDataForwarded},
		"dataplane.dropped":         {routing.CtrDataDropped},
		"dataplane.noroute":         {routing.CtrDataNoRoute},
		"dataplane.queue_overflow":  {routing.CtrQueueOverflow},
		"linkstate.adverts_sent":    {routing.CtrAdvertsSent},
	} {
		var v int64
		for _, name := range ctrs {
			v += c[name]
		}
		m[metric] = float64(v)
	}
}
