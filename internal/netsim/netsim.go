// Package netsim is a deterministic, packet-level discrete-event
// simulator of the cluster network the DRS runs on: dual (or more)
// shared 100 Mb/s segments — the paper's non-meshed back planes — with
// one NIC per node per segment.
//
// The simulator models what matters to the survivability study:
//
//   - shared-medium serialization: a segment transmits one frame at a
//     time at its line rate, so probe traffic genuinely consumes
//     bandwidth and the Figure 1 cost model can be verified
//     empirically;
//   - propagation latency;
//   - component failures: any NIC or segment can be failed and
//     restored at any simulated instant, silently eating frames the
//     way real broken hardware does;
//   - gray failures: a NIC can fail in one direction only (TX-dead
//     but RX-alive, or the reverse), and any component can carry an
//     Impairment — per-frame loss, extra delay and jitter, payload
//     corruption — that degrades traffic without killing it. The
//     internal/chaos package schedules these over time;
//   - broadcast: a frame addressed to Broadcast is delivered to every
//     live NIC on the segment, which the DRS relay discovery uses.
//
// It deliberately omits CSMA/CD collisions (the hub arbitrates
// perfectly) and variable queueing inside hosts; neither affects which
// component failures sever communication, and the paper's own
// simulation abstracts at the same level.
package netsim

import (
	"fmt"
	"time"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// Broadcast is the destination node meaning "every node on the
// segment".
const Broadcast = -1

// Default wire parameters, matching the Figure 1 cost model.
const (
	DefaultRate          = 100e6 // bits/s
	DefaultLatency       = 5 * time.Microsecond
	DefaultOverheadBytes = 38 // 14 MAC + 4 FCS + 8 preamble + 12 IFG
	DefaultMinFrameBytes = 84 // minimum on-wire occupancy
)

// Params configures the physical layer.
type Params struct {
	// Rate is each segment's capacity in bits/s.
	Rate float64
	// Latency is the propagation delay from transmitter to receivers.
	Latency time.Duration
	// OverheadBytes is added to every payload for serialization
	// accounting (MAC header, FCS, preamble, inter-frame gap).
	OverheadBytes int
	// MinFrameBytes floors the on-wire size of a frame.
	MinFrameBytes int
	// LossRate drops each delivered frame independently with this
	// probability, modelling a flaky (but not failed) link.
	LossRate float64
	// Switched replaces each shared hub with a store-and-forward
	// switch: every node gets a dedicated full-rate port, frames
	// serialize on the sender's ingress and the receiver's egress
	// instead of on one shared medium, and concurrent flows between
	// disjoint node pairs no longer contend. Broadcast replicates the
	// frame onto every egress port. This is the "alternative network
	// topology" ablation: the same protocols, a fabric with N× the
	// aggregate capacity.
	Switched bool
}

// DefaultParams returns the paper's 100 Mb/s configuration.
func DefaultParams() Params {
	return Params{
		Rate:          DefaultRate,
		Latency:       DefaultLatency,
		OverheadBytes: DefaultOverheadBytes,
		MinFrameBytes: DefaultMinFrameBytes,
	}
}

func (p Params) validate() error {
	if !(p.Rate > 0) {
		return fmt.Errorf("netsim: rate must be positive, have %v", p.Rate)
	}
	if p.Latency < 0 {
		return fmt.Errorf("netsim: negative latency")
	}
	if p.OverheadBytes < 0 || p.MinFrameBytes < 0 {
		return fmt.Errorf("netsim: negative frame size parameter")
	}
	if p.LossRate < 0 || p.LossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1)", p.LossRate)
	}
	return nil
}

// Direction selects which half of a NIC's duplex path an operation
// applies to. Back planes have no direction: any Direction acts on the
// whole segment.
type Direction int

const (
	// DirBoth addresses both halves of the path (the classic
	// fail-stop model).
	DirBoth Direction = iota
	// DirTx addresses only the transmit half: the component silently
	// eats everything it is asked to send but still receives.
	DirTx
	// DirRx addresses only the receive half.
	DirRx
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirBoth:
		return "both"
	case DirTx:
		return "tx"
	case DirRx:
		return "rx"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Impairment degrades a component without killing it — the gray
// failures the fail-stop model cannot express. It is drawn once per
// frame crossing the component: for a NIC on the transmit side for the
// sender's NIC and the receive side for a receiver's; for a back plane
// once per frame at transmit time; for a fabric switch or trunk when
// the frame is handed to it. The zero value is no impairment.
type Impairment struct {
	// Loss drops each frame crossing the component independently with
	// this probability.
	Loss float64
	// Corrupt flips one random payload byte with this probability; the
	// mangled frame is still delivered, so receivers must survive
	// garbage (their codecs reject it).
	Corrupt float64
	// Delay adds fixed extra latency to every frame crossing the
	// component.
	Delay time.Duration
	// Jitter adds uniform random extra latency in [0, Jitter).
	Jitter time.Duration
}

// IsZero reports whether the impairment has no effect at all.
func (imp Impairment) IsZero() bool {
	return imp.Loss == 0 && imp.Corrupt == 0 && imp.Delay == 0 && imp.Jitter == 0
}

// Validate rejects impairments outside the model: probabilities must
// lie in [0,1] and time offsets must be non-negative.
func (imp Impairment) Validate() error {
	if imp.Loss < 0 || imp.Loss > 1 {
		return fmt.Errorf("netsim: impairment loss %v outside [0,1]", imp.Loss)
	}
	if imp.Corrupt < 0 || imp.Corrupt > 1 {
		return fmt.Errorf("netsim: impairment corrupt probability %v outside [0,1]", imp.Corrupt)
	}
	if imp.Delay < 0 {
		return fmt.Errorf("netsim: negative impairment delay %v", imp.Delay)
	}
	if imp.Jitter < 0 {
		return fmt.Errorf("netsim: negative impairment jitter %v", imp.Jitter)
	}
	return nil
}

// Frame is one delivered datagram.
type Frame struct {
	Src     int // sending node
	Dst     int // destination node, or Broadcast
	Rail    int // segment the frame travelled on
	Payload []byte
}

// Handler receives frames addressed to (or broadcast past) a node.
// Handlers run inside scheduler events: they may send frames and set
// timers but must not block.
type Handler func(fr Frame)

// Tap observes every frame crossing the network, for invariant
// checkers and protocol analyzers. A tap is purely observational: it
// must not send frames or mutate the network, and it draws no
// randomness, so installing one never perturbs a seeded run.
type Tap interface {
	// FrameSent fires once per Send call that passes validation, at
	// simulated time at, before any drop accounting — a frame eaten by
	// a dead NIC or an impairment is still reported here, because the
	// packet existed. fr.Dst may be Broadcast.
	FrameSent(at time.Duration, fr Frame)
	// FrameDelivered fires at actual delivery into a node's handler
	// (fr.Dst is the receiving node, never Broadcast), after every
	// drop check, with the payload as the handler sees it (corrupted
	// frames report their mangled bytes).
	FrameDelivered(at time.Duration, fr Frame)
}

// SegmentStats counts traffic on one segment.
type SegmentStats struct {
	FramesSent      int64
	FramesDelivered int64
	// BitsSent is the on-wire serialization cost of everything
	// transmitted, including overhead and minimum-frame padding.
	BitsSent float64
	// Drops by cause.
	DroppedTxNIC   int64 // sender's NIC was down
	DroppedSegment int64 // segment was down at transmit or delivery
	DroppedRxNIC   int64 // receiver's NIC was down
	DroppedLoss    int64 // random loss (Params.LossRate)
	// DroppedImpaired counts frames eaten by a gray-failure
	// impairment's loss process (chaos layer).
	DroppedImpaired int64
	// DroppedNodeDown counts frames blackholed because the node's
	// daemon process was fail-stopped (crash lifecycle): the NICs are
	// electrically up but nothing behind them sends or receives.
	DroppedNodeDown int64
	// DroppedPartitioned counts frames eaten by an installed network
	// partition (Partition): the directed (src, dst, rail) path was
	// blocked at delivery time.
	DroppedPartitioned int64
	// Corrupted counts frames whose payload was mangled in transit by
	// an impairment; they still occupy the wire and are delivered.
	Corrupted int64
}

type segment struct {
	busyUntil simtime.Time
	// Per-node port clocks, used only in switched mode.
	ingressBusy []simtime.Time
	egressBusy  []simtime.Time
	stats       SegmentStats
}

// Network is one simulated cluster network: the dual-rail shared
// segments (or per-rail switches) the paper studies. Its component
// state lives in the shared core over topology.FromCluster of the
// cluster, so back plane k is switch k with the Cluster's ids.
type Network struct {
	components
	segs []segment
	// part holds the installed network partitions (nil until the first
	// Partition, so partition-free runs pay nothing): directed
	// (src, dst, rail) paths whose frames vanish at delivery.
	part map[partKey]struct{}
	// Delivery-event recycling: hub-mode deliveries are never
	// cancelled, so their event records cycle through a freelist and
	// the pre-bound deliverEv method value instead of allocating a
	// fresh closure and timer per frame.
	freeEv    *frameEvent
	deliverEv func(any)
}

// frameEvent carries one in-flight hub-mode frame through the
// scheduler without a per-send closure.
type frameEvent struct {
	fr   Frame
	next *frameEvent
}

// New builds a healthy network for the given cluster shape on the
// given scheduler. seed feeds the (optional) random-loss process.
func New(sched *simtime.Scheduler, cluster topology.Cluster, params Params, seed uint64) (*Network, error) {
	fab, err := topology.FromCluster(cluster)
	if err != nil {
		return nil, err
	}
	n := &Network{segs: make([]segment, cluster.Rails)}
	if err := n.components.init(sched, fab, params, seed); err != nil {
		return nil, err
	}
	n.deliverEv = n.deliverEvent
	if params.Switched {
		for r := range n.segs {
			n.segs[r].ingressBusy = make([]simtime.Time, cluster.Nodes)
			n.segs[r].egressBusy = make([]simtime.Time, cluster.Nodes)
		}
	}
	return n, nil
}

// Cluster returns the cluster shape.
func (n *Network) Cluster() topology.Cluster {
	return topology.Cluster{Nodes: n.fab.Hosts(), Rails: n.fab.Ports()}
}

// Send transmits payload from src to dst on rail. dst may be
// Broadcast. The call never blocks and never reports delivery
// failures: like real hardware, a frame sent into a broken NIC or
// dead segment silently vanishes (the drop is counted in
// SegmentStats). An error is returned only for malformed requests.
func (n *Network) Send(src, rail, dst int, payload []byte) error {
	if err := n.checkSend(src, rail, dst); err != nil {
		return err
	}
	seg := &n.segs[rail]
	data, extra, ok := n.egress(&seg.stats, src, rail, dst, payload)
	if !ok {
		return nil
	}
	txTime, bits := n.wireTime(len(payload))
	fr := Frame{Src: src, Dst: dst, Rail: rail, Payload: data}

	if n.params.Switched {
		n.sendSwitched(seg, fr, txTime, bits, extra)
		return nil
	}

	// Shared medium (hub): one frame at a time on the whole segment.
	start := n.sched.Now()
	if seg.busyUntil > start {
		start = seg.busyUntil
	}
	end := start.Add(txTime)
	seg.busyUntil = end
	seg.stats.BitsSent += bits
	ev := n.freeEv
	if ev != nil {
		n.freeEv = ev.next
		ev.next = nil
	} else {
		ev = new(frameEvent)
	}
	ev.fr = fr
	n.sched.AtCall(end.Add(n.params.Latency+extra), n.deliverEv, ev)
	return nil
}

// deliverEvent is the scheduler callback for hub-mode deliveries: it
// frees the event record (payload reference cleared so the freelist
// pins nothing) before running the delivery itself.
func (n *Network) deliverEvent(arg any) {
	ev := arg.(*frameEvent)
	fr := ev.fr
	ev.fr = Frame{}
	ev.next = n.freeEv
	n.freeEv = ev
	n.deliver(fr)
}

// sendSwitched models a store-and-forward switch: the frame serializes
// on the sender's ingress port, crosses the fabric, then serializes
// again on each receiver's egress port — so disjoint flows proceed in
// parallel and only same-port traffic contends.
func (n *Network) sendSwitched(seg *segment, fr Frame, txTime time.Duration, bits float64, extra time.Duration) {
	ingStart := n.sched.Now()
	if seg.ingressBusy[fr.Src] > ingStart {
		ingStart = seg.ingressBusy[fr.Src]
	}
	ingDone := ingStart.Add(txTime)
	seg.ingressBusy[fr.Src] = ingDone
	seg.stats.BitsSent += bits

	half := n.params.Latency / 2
	deliverVia := func(node int) {
		arrival := ingDone.Add(half + extra)
		egStart := arrival
		if seg.egressBusy[node] > egStart {
			egStart = seg.egressBusy[node]
		}
		egDone := egStart.Add(txTime)
		seg.egressBusy[node] = egDone
		n.sched.At(egDone.Add(half), func() {
			if !n.swUp[fr.Rail] {
				seg.stats.DroppedSegment++
				return
			}
			n.deliverTo(seg, fr, node)
		})
	}
	if fr.Dst == Broadcast {
		for node := 0; node < n.Nodes(); node++ {
			if node != fr.Src {
				deliverVia(node)
			}
		}
		return
	}
	deliverVia(fr.Dst)
}

func (n *Network) deliver(fr Frame) {
	seg := &n.segs[fr.Rail]
	if !n.swUp[fr.Rail] {
		seg.stats.DroppedSegment++
		return
	}
	if fr.Dst == Broadcast {
		for node := 0; node < n.Nodes(); node++ {
			if node == fr.Src {
				continue
			}
			n.deliverTo(seg, fr, node)
		}
		return
	}
	n.deliverTo(seg, fr, fr.Dst)
}

func (n *Network) deliverTo(seg *segment, fr Frame, node int) {
	// Receive-side impairment of the receiver's NIC: drawn here, at
	// arrival on the segment, so broadcast receivers are impaired
	// independently.
	drop, extra, corrupt := n.drawRx(topology.Component(node*n.fab.Ports() + fr.Rail))
	if drop {
		seg.stats.DroppedImpaired++
		return
	}
	if extra > 0 {
		n.sched.After(extra, func() { n.completeDelivery(seg, fr, node, corrupt) })
		return
	}
	n.completeDelivery(seg, fr, node, corrupt)
}

// completeDelivery is the final hop into the receiver: the process,
// NIC and partition checks happen here, at actual delivery time, so a
// NIC that died while an impairment delayed the frame still eats it.
func (n *Network) completeDelivery(seg *segment, fr Frame, node int, corrupt bool) {
	if !n.nodeUp[node] {
		seg.stats.DroppedNodeDown++
		return
	}
	if !n.nicRx[node*n.fab.Ports()+fr.Rail] {
		seg.stats.DroppedRxNIC++
		return
	}
	if n.partitioned(fr.Src, node, fr.Rail) {
		seg.stats.DroppedPartitioned++
		return
	}
	private := fr.Dst == Broadcast
	fr.Dst = node
	n.receive(&seg.stats, fr, corrupt, private)
}

// CarrierUp reports whether src's logical link to peer on rail has
// carrier right now: src's transmit half, the segment and peer's
// receive half are all electrically alive. This is the physical-layer
// failure detection static fast-failover switching relies on (loss of
// signal, link-layer keepalive) — and deliberately NOT a routing
// control plane: it reflects component state only, so a fail-stopped
// daemon behind healthy NICs (NodeUp false) still shows carrier,
// exactly like a crashed router whose link lights stay on.
func (n *Network) CarrierUp(src, peer, rail int) bool {
	n.checkNode(src)
	n.checkNode(peer)
	n.checkRail(rail)
	return n.linkUp(src, peer, rail)
}

// linkUp reports whether u's transmit NIC, the segment and v's
// receive NIC are all alive on rail.
func (n *Network) linkUp(u, v, rail int) bool {
	ports := n.fab.Ports()
	return n.nicTx[u*ports+rail] && n.swUp[rail] && n.nicRx[v*ports+rail]
}

// Reachable reports ground-truth connectivity from src to dst at this
// simulated instant: whether any chain of live forwarding hops exists,
// where a hop u→v needs u's transmit NIC, the segment and v's receive
// NIC alive on some rail with no partition blocking the directed
// (u, v, rail) path, and every node on the chain (including src and
// dst) must have its daemon process running. This is the oracle
// invariant checkers use to tell a legitimate "provably disconnected"
// packet loss from a routing failure.
func (n *Network) Reachable(src, dst int) bool {
	n.checkNode(src)
	n.checkNode(dst)
	if !n.nodeUp[src] || !n.nodeUp[dst] {
		return false
	}
	if src == dst {
		return true
	}
	// BFS over live nodes; the frontier is tiny (clusters are small and
	// dense), so the quadratic scan is fine.
	nodes := n.Nodes()
	visited := make([]bool, nodes)
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < nodes; v++ {
			if visited[v] || !n.nodeUp[v] {
				continue
			}
			for r := 0; r < n.Rails(); r++ {
				if n.linkUp(u, v, r) && !n.partitioned(u, v, r) {
					if v == dst {
						return true
					}
					visited[v] = true
					queue = append(queue, v)
					break
				}
			}
		}
	}
	return false
}

// Stats returns a copy of the traffic counters for rail.
func (n *Network) Stats(rail int) SegmentStats {
	n.checkRail(rail)
	return n.segs[rail].stats
}

// Utilization returns the fraction of rail capacity consumed so far,
// over the elapsed simulated time (0 if no time has passed). On a hub
// the capacity is one shared medium; on a switch it is one full-rate
// port per node.
func (n *Network) Utilization(rail int) float64 {
	elapsed := n.sched.Now().Duration().Seconds()
	if elapsed <= 0 {
		return 0
	}
	capacity := n.params.Rate * elapsed
	if n.params.Switched {
		capacity *= float64(n.Nodes())
	}
	return n.Stats(rail).BitsSent / capacity
}
