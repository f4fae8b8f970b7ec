package netsim

import (
	"fmt"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// FabricNet is the switched-fabric generalization of Network: frames
// cross an arbitrary graph of hosts, switches and trunks with
// store-and-forward serialization on every link they traverse.
//
// Forwarding model: switches run converged shortest-path routing over
// the healthy portion of the fabric — next-hop tables are recomputed
// (lazily, deterministically) whenever a component fails or recovers,
// the way a link-state fabric converges. Frames already in flight
// still hit dead components and are dropped, exactly like Network.
// Hosts do NOT relay inside the fabric: multi-host relaying is the
// routing protocol's job (BCube-style server-centric paths emerge from
// DRS relay routes, not from the wire). A frame whose destination has
// no switch-level path is dropped and counted.
//
// Timing: a frame serializes (at Params.Rate) on each link it
// crosses — the sender's NIC link, every trunk, the receiver's NIC
// link — and pays Params.Latency propagation per link. Each link
// direction has its own busy clock, so disjoint paths never contend.
//
// Failure semantics are Network's, from the same component core: NICs
// fail per-direction (gray failures), switches and trunks fail whole,
// FailNode blackholes a host's traffic without touching electrical
// state, and an impairment (loss/corrupt/delay/jitter) on any
// component is drawn once per frame crossing it — the sender's NIC
// and entry switch at send, each trunk and the switch behind it when
// the frame is forwarded onto the trunk, the receiver's NIC at
// arrival. Randomness is drawn only when an impairment or loss process
// is configured, so healthy runs are byte-identical across refactors.
type FabricNet struct {
	components

	// Busy clocks, one per link direction.
	nicBusyUp   []simtime.Time // host → switch
	nicBusyDown []simtime.Time // switch → host
	trkBusyAB   []simtime.Time
	trkBusyBA   []simtime.Time

	stats SegmentStats

	// Routing tables: per destination host, the next trunk from every
	// switch toward the destination's nearest live attachment switch,
	// valid while its epoch matches the component state's.
	routes []*fabricRoute

	// Pooled in-flight events and the pre-bound hop callback.
	freeHop *hopEvent
	hopFn   func(any)
}

// fabricRoute is one destination host's converged routing state.
type fabricRoute struct {
	epoch uint64
	// trunk[s] is the trunk to take from switch s toward the
	// destination (-1 at attachment switches and unreachable ones).
	trunk []int32
	// downNIC[s] is the dense NIC id to deliver through when s is a
	// live attachment switch of the destination (-1 otherwise).
	downNIC []int32
	// dist[s] is the hop distance to the destination (-1 unreachable).
	dist []int32
}

// hopEvent carries one in-flight frame between fabric elements.
type hopEvent struct {
	fr      Frame // Rail is the ingress port; Dst is the final host
	sw      int32 // switch the frame is arriving at (stage 0)
	nic     int32 // NIC link being crossed (stages 1 and 2)
	stage   int8  // 0 = at switch, 1 = at host, 2 = post-impairment-delay
	corrupt bool  // a crossing drew a corruption; mangle at delivery
	next    *hopEvent
}

// NewFabricNet builds a healthy fabric network on the scheduler.
// Params.Switched is ignored — a fabric is switched by construction.
func NewFabricNet(sched *simtime.Scheduler, fab *topology.Fabric, params Params, seed uint64) (*FabricNet, error) {
	if fab == nil {
		return nil, fmt.Errorf("netsim: nil fabric")
	}
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	nics := fab.Hosts() * fab.Ports()
	n := &FabricNet{
		nicBusyUp:   make([]simtime.Time, nics),
		nicBusyDown: make([]simtime.Time, nics),
		trkBusyAB:   make([]simtime.Time, fab.Trunks()),
		trkBusyBA:   make([]simtime.Time, fab.Trunks()),
		routes:      make([]*fabricRoute, fab.Hosts()),
	}
	if err := n.components.init(sched, fab, params, seed); err != nil {
		return nil, err
	}
	n.hopFn = n.hop
	return n, nil
}

// routeFor returns dst's converged routing table, rebuilding it if
// component state changed since it was computed. The rebuild is a
// multi-source BFS from dst's live attachment switches over healthy
// switches and trunks, with deterministic ascending-id tie-breaks.
func (n *FabricNet) routeFor(dst int) *fabricRoute {
	rt := n.routes[dst]
	if rt != nil && rt.epoch == n.epoch {
		return rt
	}
	S := n.fab.Switches()
	if rt == nil {
		rt = &fabricRoute{
			trunk:   make([]int32, S),
			downNIC: make([]int32, S),
			dist:    make([]int32, S),
		}
		n.routes[dst] = rt
	}
	rt.epoch = n.epoch
	for s := 0; s < S; s++ {
		rt.trunk[s], rt.downNIC[s], rt.dist[s] = -1, -1, -1
	}
	// Seed with dst's live attachment switches, lowest port first so
	// a switch serving the host through two ports uses the lowest.
	queue := make([]int32, 0, S)
	for p := 0; p < n.fab.Ports(); p++ {
		nic := dst*n.fab.Ports() + p
		s := n.fab.HostSwitch(dst, p)
		if !n.nicRx[nic] || !n.swUp[s] {
			continue
		}
		if rt.dist[s] < 0 {
			rt.dist[s] = 0
			rt.downNIC[s] = int32(nic)
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		n.fab.SwitchNeighbors(u, func(v, t int) {
			if rt.dist[v] >= 0 || !n.trkUp[t] || !n.swUp[v] {
				return
			}
			rt.dist[v] = rt.dist[u] + 1
			rt.trunk[v] = int32(t) // trunk from v toward u (toward dst)
			queue = append(queue, int32(v))
		})
	}
	return rt
}

// Send transmits payload from src's port rail toward dst (or
// Broadcast). Semantics mirror Network.Send: the call never blocks
// and drops are silent but counted.
func (n *FabricNet) Send(src, rail, dst int, payload []byte) error {
	if err := n.checkSend(src, rail, dst); err != nil {
		return err
	}
	data, extra, ok := n.egress(&n.stats, src, rail, dst, payload)
	if !ok {
		return nil
	}
	txTime, bits := n.wireTime(len(payload))

	// Serialize once on the sender's NIC link, then fan out.
	nic := src*n.fab.Ports() + rail
	start := n.sched.Now()
	if n.nicBusyUp[nic] > start {
		start = n.nicBusyUp[nic]
	}
	end := start.Add(txTime)
	n.nicBusyUp[nic] = end
	n.stats.BitsSent += bits
	arrive := end.Add(n.params.Latency + extra)
	entry := int32(n.fab.HostSwitch(src, rail))

	if dst == Broadcast {
		// Replicate toward every other host, ascending, sharing the
		// single ingress serialization — an L2 flood.
		for h := 0; h < n.fab.Hosts(); h++ {
			if h == src {
				continue
			}
			fr := Frame{Src: src, Dst: h, Rail: rail, Payload: data}
			n.schedHop(arrive, &hopEvent{fr: fr, sw: entry, stage: 0})
		}
		return nil
	}
	fr := Frame{Src: src, Dst: dst, Rail: rail, Payload: data}
	n.schedHop(arrive, &hopEvent{fr: fr, sw: entry, stage: 0})
	return nil
}

// schedHop schedules a pooled copy of ev at time at.
func (n *FabricNet) schedHop(at simtime.Time, ev *hopEvent) {
	p := n.allocHop()
	*p = hopEvent{fr: ev.fr, sw: ev.sw, nic: ev.nic, stage: ev.stage, corrupt: ev.corrupt}
	n.sched.AtCall(at, n.hopFn, p)
}

func (n *FabricNet) allocHop() *hopEvent {
	if ev := n.freeHop; ev != nil {
		n.freeHop = ev.next
		ev.next = nil
		return ev
	}
	return new(hopEvent)
}

func (n *FabricNet) freeHopEvent(ev *hopEvent) {
	*ev = hopEvent{next: n.freeHop}
	n.freeHop = ev
}

// hop is the scheduler callback for every fabric traversal event.
func (n *FabricNet) hop(arg any) {
	ev := arg.(*hopEvent)
	e := *ev
	n.freeHopEvent(ev)
	switch e.stage {
	case 0:
		n.switchArrive(e)
	case 1:
		n.hostArrive(e)
	default:
		n.hostFinal(e)
	}
}

// switchArrive handles a frame reaching switch e.sw: deliver down to
// the destination host if attached here, otherwise forward along the
// converged route.
func (n *FabricNet) switchArrive(e hopEvent) {
	sw := int(e.sw)
	if !n.swUp[sw] {
		n.stats.DroppedSegment++
		return
	}
	rt := n.routeFor(e.fr.Dst)
	switch {
	case rt.downNIC[sw] >= 0:
		// Attachment switch: serialize down the host link. The
		// receiver's NIC impairment is drawn once, at host arrival.
		nic := rt.downNIC[sw]
		txTime, bits := n.wireTime(len(e.fr.Payload))
		start := n.sched.Now()
		if n.nicBusyDown[nic] > start {
			start = n.nicBusyDown[nic]
		}
		end := start.Add(txTime)
		n.nicBusyDown[nic] = end
		n.stats.BitsSent += bits
		e.nic = nic
		e.stage = 1
		n.schedHop(end.Add(n.params.Latency), &e)
	case rt.trunk[sw] >= 0:
		t := int(rt.trunk[sw])
		if !n.trkUp[t] {
			// Route table converged before this in-flight frame arrived.
			n.stats.DroppedSegment++
			return
		}
		tr := n.fab.Trunk(t)
		peer := tr.A
		busy := &n.trkBusyBA[t]
		if sw == tr.A {
			peer = tr.B
			busy = &n.trkBusyAB[t]
		}
		if !n.swUp[peer] {
			n.stats.DroppedSegment++
			return
		}
		// The frame crosses the trunk and then the switch behind it:
		// draw both, in that order.
		drop, extra, corrupt := n.drawTx2(n.fab.TrunkComp(t), n.fab.Switch(peer))
		if drop {
			n.stats.DroppedImpaired++
			return
		}
		txTime, bits := n.wireTime(len(e.fr.Payload))
		start := n.sched.Now()
		if *busy > start {
			start = *busy
		}
		end := start.Add(txTime)
		*busy = end
		n.stats.BitsSent += bits
		e.sw = int32(peer)
		e.corrupt = e.corrupt || corrupt
		n.schedHop(end.Add(n.params.Latency+extra), &e)
	default:
		// No live path to the destination.
		n.stats.DroppedSegment++
	}
}

// hostArrive is the frame's arrival at the receiver, mirroring
// Network.deliverTo: the receive-side NIC impairment is drawn here,
// and a frame it delays is checked against component state only when
// the delay elapses.
func (n *FabricNet) hostArrive(e hopEvent) {
	drop, extra, corrupt := n.drawRx(topology.Component(e.nic))
	if drop {
		n.stats.DroppedImpaired++
		return
	}
	e.corrupt = e.corrupt || corrupt
	if extra > 0 {
		e.stage = 2
		n.schedHop(n.sched.Now().Add(extra), &e)
		return
	}
	n.hostFinal(e)
}

// hostFinal is the final hop into the receiver, mirroring
// Network.completeDelivery: process and NIC state are checked at the
// actual delivery instant.
func (n *FabricNet) hostFinal(e hopEvent) {
	if !n.nodeUp[e.fr.Dst] {
		n.stats.DroppedNodeDown++
		return
	}
	if !n.nicRx[e.nic] {
		n.stats.DroppedRxNIC++
		return
	}
	// Every delivery gets a private copy: the backing buffer is shared
	// with broadcast siblings still in flight, and receivers may retain
	// payloads (discovery queues do). The delivery rail is the port the
	// frame finally came in through.
	e.fr.Rail = int(e.nic) % n.fab.Ports()
	n.receive(&n.stats, e.fr, e.corrupt, true)
}

// CarrierUp reports whether src's port rail currently has a converged
// fabric path to peer: the local transmit half, the fabric route and
// peer's delivery link are all alive. On a fabric this is the
// link-state view a converged switching layer exposes to its hosts,
// the closest analogue of the dual-rail carrier oracle.
func (n *FabricNet) CarrierUp(src, peer, rail int) bool {
	n.checkNode(src)
	n.checkNode(peer)
	n.checkRail(rail)
	nic := src*n.fab.Ports() + rail
	if !n.nicTx[nic] {
		return false
	}
	entry := n.fab.HostSwitch(src, rail)
	if !n.swUp[entry] {
		return false
	}
	rt := n.routeFor(peer)
	return rt.dist[entry] >= 0
}

// Reachable reports ground-truth connectivity from src to dst,
// including protocol-level relaying through intermediate hosts whose
// daemons are running — the oracle invariant checkers use. A hop into
// a host needs its receive NIC; a hop out needs a transmit NIC; every
// intermediate host needs its process up.
func (n *FabricNet) Reachable(src, dst int) bool {
	n.checkNode(src)
	n.checkNode(dst)
	if !n.nodeUp[src] || !n.nodeUp[dst] {
		return false
	}
	if src == dst {
		return true
	}
	hosts, ports := n.fab.Hosts(), n.fab.Ports()
	verts := hosts + n.fab.Switches()
	visited := make([]bool, verts)
	visited[src] = true
	queue := make([]int, 0, verts)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if u < hosts {
			// Host → its switches, via live transmit NICs. Intermediate
			// hosts relay only when their process is up (src always is).
			if u != src && !n.nodeUp[u] {
				continue
			}
			for p := 0; p < ports; p++ {
				nic := u*ports + p
				s := hosts + n.fab.HostSwitch(u, p)
				if !n.nicTx[nic] || !n.swUp[s-hosts] || visited[s] {
					continue
				}
				visited[s] = true
				queue = append(queue, s)
			}
			continue
		}
		// Switch → neighbour switches over live trunks, and down to
		// attached hosts via live receive NICs.
		sw := u - hosts
		n.fab.SwitchNeighbors(sw, func(v, t int) {
			if visited[hosts+v] || !n.trkUp[t] || !n.swUp[v] {
				return
			}
			visited[hosts+v] = true
			queue = append(queue, hosts+v)
		})
		for h := 0; h < hosts; h++ {
			if visited[h] {
				continue
			}
			for p := 0; p < ports; p++ {
				if n.fab.HostSwitch(h, p) == sw && n.nicRx[h*ports+p] {
					if h == dst {
						return true
					}
					visited[h] = true
					queue = append(queue, h)
					break
				}
			}
		}
	}
	return false
}

// Stats returns a copy of the aggregate traffic counters. A fabric
// has one counter set; any in-range rail index returns it.
func (n *FabricNet) Stats(rail int) SegmentStats {
	n.checkRail(rail)
	return n.stats
}

// Utilization returns the fraction of total fabric link capacity
// consumed so far (all links aggregated; same value for any rail).
func (n *FabricNet) Utilization(rail int) float64 {
	n.checkRail(rail)
	elapsed := n.sched.Now().Duration().Seconds()
	if elapsed <= 0 {
		return 0
	}
	links := float64(n.fab.Hosts()*n.fab.Ports() + n.fab.Trunks())
	return n.stats.BitsSent / (n.params.Rate * links * elapsed)
}
