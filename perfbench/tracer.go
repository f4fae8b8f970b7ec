package main

import (
	"encoding/binary"
	"time"

	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/runtime"
)

// Traced protocol names: each wraps a built-in protocol's builder so
// the node's Transport and Clock pass through the active tracer's
// timing decorators. Only the seams are wrapped, never the Router:
// runtime and nemesis type-assert the router to *core.Daemon.
var tracedProtocols = map[string]string{
	runtime.ProtoDRS:       "perfbench-drs",
	runtime.ProtoLinkState: "perfbench-linkstate",
}

// active is the tracer the wrapper builders decorate with. Protocol
// builders are looked up by name from runtime's registry, so the
// registered closures cannot carry a tracer of their own; the
// benchmark runs one simulation at a time and sets active around it.
var active *tracer

func init() {
	for real, name := range tracedProtocols {
		real := real
		runtime.Register(name, func(ctx runtime.BuildContext) (routing.Router, error) {
			build, err := runtime.Lookup(real)
			if err != nil {
				return nil, err
			}
			t := active
			if t == nil {
				return build(ctx)
			}
			ctx.Transport = &tracedTransport{Transport: ctx.Transport, t: t, node: ctx.Node}
			ctx.Clock = tracedClock{Clock: ctx.Clock, t: t}
			r, err := build(ctx)
			if err == nil {
				t.routers = append(t.routers, r)
			}
			return r, err
		})
	}
}

// span aggregates one boundary: calls, total host time, and self time
// (total minus the time of boundaries nested inside it).
type span struct {
	calls       int64
	total, self time.Duration
}

// Frame kinds the receive decorator classifies by their wire
// discriminators. Goodbye frames count as hello (both are membership).
const (
	kindICMP = iota
	kindHello
	kindRejoin
	kindQuery
	kindOffer
	kindLSHello
	kindLSA
	kindData
	kindOther
	numKinds
)

var kindNames = [numKinds]string{"icmp", "hello", "rejoin", "query", "offer", "lshello", "lsa", "data", "other"}

func kindOf(p []byte) int {
	if len(p) == 0 {
		return kindOther
	}
	switch p[0] {
	case wire.ProtoICMP:
		return kindICMP
	case wire.ProtoData:
		return kindData
	case wire.ProtoControl:
		if len(p) < 2 {
			return kindOther
		}
		switch p[1] {
		case wire.MsgHello, wire.MsgHelloInc, wire.MsgGoodbye:
			return kindHello
		case wire.MsgRejoin:
			return kindRejoin
		case wire.MsgRouteQuery:
			return kindQuery
		case wire.MsgRouteOffer, wire.MsgOfferInc:
			return kindOffer
		case wire.MsgLSHello:
			return kindLSHello
		case wire.MsgLSA:
			return kindLSA
		}
	}
	return kindOther
}

// lsaKey identifies an LSA stream as one receiver sees it.
type lsaKey struct{ node, origin uint16 }

// tracer aggregates every boundary in memory: a traced lsflood pass
// makes millions of receive calls, so no per-call record is kept.
// It is single-threaded, like the simulations it observes (simtime,
// and the manual wall clock nemesis drives).
type tracer struct {
	rx, timer, send, arm span
	// stack holds, for each open boundary, the time its nested
	// boundaries took so far.
	stack []time.Duration
	// callbacks is the time spent in outermost router callbacks
	// (receive or timer), the part of the event loop the router owns.
	callbacks time.Duration

	armed, cancelled int64
	ctrlSent         int64 // non-data frames handed to Send
	rxFrames         [numKinds]int64
	rxBytes          [numKinds]int64

	lsaSeq   map[lsaKey]uint32
	lsaRx    int64
	lsaFresh int64

	lsaBodies, dataBodies sampler
	// routers are the routers built since the last closeCell; their
	// counters and lookup replays accumulate into the fields below.
	routers    []routing.Router
	counters   map[string]int64
	lookupTime time.Duration
	lookups    int64

	// dropFrame, when positive, swallows the dropFrame-th received
	// frame (1-based) before the router sees it. Tests use it to show
	// that the traced-equals-untraced check catches a lossy decorator.
	dropFrame int64
	received  int64
}

func newTracer() *tracer {
	return &tracer{
		lsaSeq:     make(map[lsaKey]uint32),
		counters:   make(map[string]int64),
		lsaBodies:  newSampler(4096),
		dataBodies: newSampler(4096),
	}
}

func (t *tracer) enter() time.Time {
	t.stack = append(t.stack, 0)
	return time.Now()
}

func (t *tracer) exit(s *span, start time.Time, callback bool) {
	el := time.Since(start)
	top := len(t.stack) - 1
	nested := t.stack[top]
	t.stack = t.stack[:top]
	s.calls++
	s.total += el
	s.self += el - nested
	if top > 0 {
		t.stack[top-1] += el
	} else if callback {
		t.callbacks += el
	}
}

// observe classifies one received frame, samples codec inputs, and
// tracks LSA freshness. It reports whether the frame must be dropped.
func (t *tracer) observe(node int, p []byte) bool {
	t.received++
	if t.received == t.dropFrame {
		return true
	}
	k := kindOf(p)
	t.rxFrames[k]++
	t.rxBytes[k] += int64(len(p))
	switch k {
	case kindLSA:
		t.lsaRx++
		t.lsaBodies.offer(p[1:])
		// Header peek (envelope, type, origin uint16, seq uint32): a
		// newer seq for this (receiver, origin) makes the LSA fresh.
		if len(p) >= 8 {
			key := lsaKey{uint16(node), binary.BigEndian.Uint16(p[2:4])}
			seq := binary.BigEndian.Uint32(p[4:8])
			if last, seen := t.lsaSeq[key]; !seen || seq > last {
				t.lsaSeq[key] = seq
				t.lsaFresh++
			}
		}
	case kindData:
		t.dataBodies.offer(p[1:])
	}
	return false
}

// tracedTransport times Send and the receiver callback.
type tracedTransport struct {
	routing.Transport
	t    *tracer
	node int
}

func (x *tracedTransport) Send(rail, dst int, payload []byte) error {
	if kindOf(payload) != kindData {
		x.t.ctrlSent++
	}
	start := x.t.enter()
	err := x.Transport.Send(rail, dst, payload)
	x.t.exit(&x.t.send, start, false)
	return err
}

func (x *tracedTransport) SetReceiver(fn func(rail, src int, payload []byte)) {
	if fn == nil {
		x.Transport.SetReceiver(nil)
		return
	}
	t := x.t
	x.Transport.SetReceiver(func(rail, src int, payload []byte) {
		if t.observe(x.node, payload) {
			return
		}
		start := t.enter()
		fn(rail, src, payload)
		t.exit(&t.rx, start, true)
	})
}

// tracedClock times AfterFunc and the callbacks it fires, and counts
// cancellations of still-pending timers.
type tracedClock struct {
	routing.Clock
	t *tracer
}

func (c tracedClock) AfterFunc(d time.Duration, fn func()) (cancel func() bool) {
	t := c.t
	start := t.enter()
	inner := c.Clock.AfterFunc(d, func() {
		s := t.enter()
		fn()
		t.exit(&t.timer, s, true)
	})
	t.exit(&t.arm, start, false)
	t.armed++
	return func() bool {
		ok := inner()
		if ok {
			t.cancelled++
		}
		return ok
	}
}

// sampler keeps an evenly spaced, bounded sample of a byte stream's
// items: every stride-th item, halving the sample and doubling the
// stride whenever it fills. The sample is deterministic per stream.
type sampler struct {
	items  [][]byte
	limit  int
	stride int64
	seen   int64
}

func newSampler(limit int) sampler { return sampler{limit: limit, stride: 1} }

func (s *sampler) offer(b []byte) {
	s.seen++
	if (s.seen-1)%s.stride != 0 {
		return
	}
	s.items = append(s.items, append([]byte(nil), b...))
	if len(s.items) == s.limit {
		kept := s.items[:0]
		for i := 0; i < len(s.items); i += 2 {
			kept = append(kept, s.items[i])
		}
		s.items = kept
		s.stride *= 2
	}
}

// closeCell folds the counters of the routers built since the last
// call into the tracer and replays their counter lookups. Call it
// outside the timed phase, once the routers have stopped.
func (t *tracer) closeCell() {
	sum, elapsed, lookups := counterTotals(t.routers)
	for name, v := range sum {
		t.counters[name] += v
	}
	t.lookupTime += elapsed
	t.lookups += lookups
	t.routers = nil
}

// layers returns the metrics a traced pass measured through the
// seams and replays. timed is the pass's timed host time and events
// the scheduler events it executed (0 when the workload has no simtime
// scheduler). The send seam is netsim's on simulator workloads and
// transport's (Mem+Faults) on nemesis.
func (t *tracer) layers(seam string, timed time.Duration, events int64) map[string]float64 {
	m := map[string]float64{
		"router.rx_self_ns":         perCall(t.rx.self, t.rx.calls),
		"router.rx_frames":          float64(t.rx.calls),
		"router.rx_share":           share(t.rx.self, timed),
		"router.timer_self_ns":      perCall(t.timer.self, t.timer.calls),
		"router.timer_fires":        float64(t.timer.calls),
		"router.timer_share":        share(t.timer.self, timed),
		"clock.arm_ns":              perCall(t.arm.total, t.arm.calls),
		"clock.timers":              float64(t.armed),
		"clock.cancel_ratio":        ratio(float64(t.cancelled), float64(t.armed)),
		"clock.arm_share":           share(t.arm.total, timed),
		seam + ".send_ns":           perCall(t.send.total, t.send.calls),
		seam + ".send_share":        share(t.send.total, timed),
		"linkstate.lsa_rx":          float64(t.lsaRx),
		"linkstate.lsa_fresh_ratio": ratio(float64(t.lsaFresh), float64(t.lsaRx)),
	}
	if events > 0 {
		loop := timed - t.callbacks
		m["simtime.loop_ns_per_event"] = float64(loop.Nanoseconds()) / float64(events)
		m["simtime.loop_share"] = share(loop, timed)
	}
	t.closeCell()
	counterLayers(t.counters, m)
	m["metrics.lookup_ns"] = perCall(t.lookupTime, t.lookups)
	t.replayCodecs(m)
	for k := 0; k < numKinds; k++ {
		m["wire.rx."+kindNames[k]] = float64(t.rxFrames[k])
		m["wire.rx_bytes."+kindNames[k]] = float64(t.rxBytes[k])
	}
	return m
}

func perCall(d time.Duration, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// ratio is num/den, or 0 when den is 0: a pass whose operations all
// failed reports zeros, not the NaN JSON cannot carry.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
