package netsim

import (
	"fmt"
	"time"

	"drsnet/internal/rng"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// components is the per-component state both packet engines embed:
// NIC duplex halves, switch (back plane) and trunk up-state, process
// fail-stop, frame handlers and the tap, and the gray-failure
// impairments with their random draws. Ids are the fabric's; a
// dual-rail Network runs over topology.FromCluster, whose switch k is
// back plane k with the Cluster's component ids. How a frame moves —
// and what CarrierUp, Reachable, Stats and Utilization mean — stays
// with each engine.
type components struct {
	sched  *simtime.Scheduler
	fab    *topology.Fabric
	params Params

	// Per-NIC duplex state by dense NIC id (host*ports + port): a NIC is
	// operational only when both halves are; a unidirectional (gray)
	// failure kills one half.
	nicTx, nicRx []bool
	swUp         []bool
	trkUp        []bool
	// Per-node process state: false while the node's daemon is
	// fail-stopped (crash lifecycle). Unlike NIC failures this
	// blackholes every frame the node sends or would receive without
	// touching the electrical component state.
	nodeUp  []bool
	handler []Handler
	// tap, when non-nil, observes every frame (see Tap).
	tap Tap

	// rnd drives Params.LossRate. impRnd is a substream split off it at
	// construction (splitting does not perturb the parent), so enabling
	// impairments never changes the loss draw sequence. imp holds the
	// active impairments, nil until the first SetImpairment so the
	// healthy fast path stays free.
	rnd    *rng.Source
	impRnd *rng.Source
	imp    map[topology.Component]Impairment

	// epoch advances on every component state change, so state derived
	// from it (FabricNet's converged routes) knows when to rebuild.
	epoch uint64
}

// init builds healthy component state for fab. seed feeds the loss
// and impairment processes.
func (c *components) init(sched *simtime.Scheduler, fab *topology.Fabric, params Params, seed uint64) error {
	if sched == nil {
		return fmt.Errorf("netsim: nil scheduler")
	}
	if err := params.validate(); err != nil {
		return err
	}
	nics := fab.Hosts() * fab.Ports()
	*c = components{
		sched:   sched,
		fab:     fab,
		params:  params,
		nicTx:   allUp(nics),
		nicRx:   allUp(nics),
		swUp:    allUp(fab.Switches()),
		trkUp:   allUp(fab.Trunks()),
		nodeUp:  allUp(fab.Hosts()),
		handler: make([]Handler, fab.Hosts()),
		rnd:     rng.New(seed),
	}
	c.impRnd = c.rnd.Split(0xc4a05)
	return nil
}

func allUp(n int) []bool {
	up := make([]bool, n)
	for i := range up {
		up[i] = true
	}
	return up
}

// Fabric returns the network's component shape.
func (c *components) Fabric() *topology.Fabric { return c.fab }

// Nodes returns the number of nodes (hosts).
func (c *components) Nodes() int { return c.fab.Hosts() }

// Rails returns the number of rails (NIC ports per node).
func (c *components) Rails() int { return c.fab.Ports() }

// Scheduler returns the driving scheduler (for protocol timers).
func (c *components) Scheduler() *simtime.Scheduler { return c.sched }

// SetHandler installs the frame handler for node.
func (c *components) SetHandler(node int, h Handler) {
	c.checkNode(node)
	c.handler[node] = h
}

// SetTap installs (or, with nil, removes) the network's frame
// observer. At most one tap is active; the healthy fast path pays
// nothing when none is installed.
func (c *components) SetTap(t Tap) { c.tap = t }

// Fail takes a component down. Failing an already failed component is
// a no-op. Frames in flight through a failed component are lost when
// they reach it.
func (c *components) Fail(comp topology.Component) { c.FailDir(comp, DirBoth) }

// Restore brings a failed component back (both directions of a NIC).
func (c *components) Restore(comp topology.Component) { c.RestoreDir(comp, DirBoth) }

// FailDir takes one direction of a NIC down — the gray failure a
// fail-stop model cannot express: a TX-dead NIC silently eats
// everything its node sends on that port while replies still arrive,
// and vice versa. Switches (back planes) and trunks have no duplex
// halves: any direction fails the whole component.
func (c *components) FailDir(comp topology.Component, dir Direction) { c.set(comp, dir, false) }

// RestoreDir brings one direction of a component back.
func (c *components) RestoreDir(comp topology.Component, dir Direction) { c.set(comp, dir, true) }

func (c *components) set(comp topology.Component, dir Direction, up bool) {
	kind, a, b := c.fab.Describe(comp)
	switch kind {
	case topology.KindNIC:
		nic := a*c.fab.Ports() + b
		if dir == DirBoth || dir == DirTx {
			c.nicTx[nic] = up
		}
		if dir == DirBoth || dir == DirRx {
			c.nicRx[nic] = up
		}
	case topology.KindSwitch:
		c.swUp[a] = up
	default:
		c.trkUp[a] = up
	}
	c.epoch++
}

// FailNode fail-stops node's daemon process: every frame it sends or
// would receive blackholes from this instant until RestoreNode. The
// NICs stay electrically up — ComponentUp still reports healthy — so
// peers see unanswered probes, not a severed link, exactly like a
// crashed router whose hardware keeps link lights on.
func (c *components) FailNode(node int) {
	c.checkNode(node)
	c.nodeUp[node] = false
}

// RestoreNode brings a fail-stopped node's process back.
func (c *components) RestoreNode(node int) {
	c.checkNode(node)
	c.nodeUp[node] = true
}

// NodeUp reports whether node's daemon process is running.
func (c *components) NodeUp(node int) bool {
	c.checkNode(node)
	return c.nodeUp[node]
}

// ComponentUp reports whether a component is fully operational (both
// directions, for a NIC).
func (c *components) ComponentUp(comp topology.Component) bool {
	return c.DirUp(comp, DirBoth)
}

// DirUp reports whether the given direction of a component works (for
// switches and trunks any direction means the whole component).
func (c *components) DirUp(comp topology.Component, dir Direction) bool {
	kind, a, b := c.fab.Describe(comp)
	switch kind {
	case topology.KindNIC:
		nic := a*c.fab.Ports() + b
		switch dir {
		case DirTx:
			return c.nicTx[nic]
		case DirRx:
			return c.nicRx[nic]
		default:
			return c.nicTx[nic] && c.nicRx[nic]
		}
	case topology.KindSwitch:
		return c.swUp[a]
	default:
		return c.trkUp[a]
	}
}

// FailedComponents returns the currently failed components in
// ascending order — the ground-truth failure scenario for comparing
// simulated behaviour against the analytic model.
func (c *components) FailedComponents() []topology.Component {
	var out []topology.Component
	for i := 0; i < c.fab.Components(); i++ {
		if comp := topology.Component(i); !c.ComponentUp(comp) {
			out = append(out, comp)
		}
	}
	return out
}

// SetImpairment installs (or replaces) the impairment on component
// comp. A zero impairment is equivalent to ClearImpairment.
func (c *components) SetImpairment(comp topology.Component, imp Impairment) error {
	if err := imp.Validate(); err != nil {
		return err
	}
	c.fab.Describe(comp) // range check (panics exactly like Fail)
	if imp.IsZero() {
		c.ClearImpairment(comp)
		return nil
	}
	if c.imp == nil {
		c.imp = make(map[topology.Component]Impairment)
	}
	c.imp[comp] = imp
	return nil
}

// ClearImpairment removes any impairment on comp.
func (c *components) ClearImpairment(comp topology.Component) {
	delete(c.imp, comp)
	if len(c.imp) == 0 {
		c.imp = nil
	}
}

// ImpairmentOn returns the active impairment on comp, if any.
func (c *components) ImpairmentOn(comp topology.Component) (Impairment, bool) {
	imp, ok := c.imp[comp]
	return imp, ok
}

// checkSend rejects malformed Send requests. Out-of-range nodes are
// programming errors and panic; a bad rail or a self-send is an error.
func (c *components) checkSend(src, rail, dst int) error {
	c.checkNode(src)
	if rail < 0 || rail >= c.fab.Ports() {
		return fmt.Errorf("netsim: rail %d out of range", rail)
	}
	if dst != Broadcast {
		c.checkNode(dst)
		if dst == src {
			return fmt.Errorf("netsim: node %d sending to itself", src)
		}
	}
	return nil
}

// egress puts a validated frame onto src's port rail. It counts the
// frame in st and shows it to the tap, then applies, in order, the
// sender's process state, its NIC's transmit half, the entry switch's
// state and the transmit-side impairments of that NIC and switch,
// counting a drop under its cause. A surviving frame comes back as a
// private copy of payload (mangled when an impairment corrupted it)
// with the extra delay the impairments drew.
func (c *components) egress(st *SegmentStats, src, rail, dst int, payload []byte) (data []byte, extra time.Duration, ok bool) {
	st.FramesSent++
	if c.tap != nil {
		c.tap.FrameSent(c.sched.Now().Duration(), Frame{Src: src, Dst: dst, Rail: rail, Payload: payload})
	}
	if !c.nodeUp[src] {
		st.DroppedNodeDown++
		return nil, 0, false
	}
	nic := src*c.fab.Ports() + rail
	if !c.nicTx[nic] {
		st.DroppedTxNIC++
		return nil, 0, false
	}
	entry := c.fab.HostSwitch(src, rail)
	if !c.swUp[entry] {
		st.DroppedSegment++
		return nil, 0, false
	}
	drop, extra, corrupt := c.drawTx2(topology.Component(nic), c.fab.Switch(entry))
	if drop {
		st.DroppedImpaired++
		return nil, 0, false
	}
	// Copy the payload: the sender may reuse its buffer.
	data = append([]byte(nil), payload...)
	if corrupt {
		c.mangle(data)
		st.Corrupted++
	}
	return data, extra, true
}

// receive is the last step of every delivery, after the engine's
// component and process checks: the Params.LossRate draw, then the
// handoff to node fr.Dst's handler and the tap. private gives the
// receiver its own copy of the payload (the buffer is shared with
// other receivers); corrupt mangles that copy.
func (c *components) receive(st *SegmentStats, fr Frame, corrupt, private bool) {
	if c.params.LossRate > 0 && c.rnd.Float64() < c.params.LossRate {
		st.DroppedLoss++
		return
	}
	h := c.handler[fr.Dst]
	if h == nil {
		return
	}
	st.FramesDelivered++
	if private || corrupt {
		fr.Payload = append([]byte(nil), fr.Payload...)
	}
	if corrupt {
		c.mangle(fr.Payload)
		st.Corrupted++
	}
	if c.tap != nil {
		c.tap.FrameDelivered(c.sched.Now().Duration(), fr)
	}
	h(fr)
}

// drawTx draws the impairment on comp for a frame handed to it: loss
// first, then delay and jitter, then corruption. A component with no
// impairment draws no randomness at all, keeping unimpaired runs
// byte-identical.
func (c *components) drawTx(comp topology.Component) (drop bool, extra time.Duration, corrupt bool) {
	imp, ok := c.imp[comp]
	if !ok {
		return false, 0, false
	}
	if c.hit(imp.Loss) {
		return true, 0, false
	}
	extra = c.delay(imp)
	return false, extra, c.hit(imp.Corrupt)
}

// drawTx2 draws the impairments of two components a frame crosses in
// turn, a first; a frame a drops never reaches b.
func (c *components) drawTx2(a, b topology.Component) (drop bool, extra time.Duration, corrupt bool) {
	if drop, extra, corrupt = c.drawTx(a); drop {
		return true, 0, false
	}
	dropB, extraB, corruptB := c.drawTx(b)
	if dropB {
		return true, 0, false
	}
	return false, extra + extraB, corrupt || corruptB
}

// drawRx draws the receive-side impairment of a receiver's NIC: loss,
// then corruption, then delay and jitter.
func (c *components) drawRx(comp topology.Component) (drop bool, extra time.Duration, corrupt bool) {
	imp, ok := c.imp[comp]
	if !ok {
		return false, 0, false
	}
	if c.hit(imp.Loss) {
		return true, 0, false
	}
	corrupt = c.hit(imp.Corrupt)
	return false, c.delay(imp), corrupt
}

// hit draws one event of probability p (no draw when p is zero).
func (c *components) hit(p float64) bool { return p > 0 && c.impRnd.Float64() < p }

// delay is an impairment's fixed delay plus one jitter draw.
func (c *components) delay(imp Impairment) time.Duration {
	d := imp.Delay
	if imp.Jitter > 0 {
		d += time.Duration(c.impRnd.Uint64n(uint64(imp.Jitter)))
	}
	return d
}

// mangle flips one byte of data in place (no-op for empty payloads) —
// the corruption model: a burst error the FCS failed to catch.
func (c *components) mangle(data []byte) {
	if len(data) == 0 {
		return
	}
	i := c.impRnd.Intn(len(data))
	data[i] ^= byte(1 + c.impRnd.Intn(255))
}

// wireTime returns the serialization time and on-wire bits of a
// payload: overhead added, minimum frame size enforced.
func (c *components) wireTime(payloadLen int) (time.Duration, float64) {
	wire := payloadLen + c.params.OverheadBytes
	if wire < c.params.MinFrameBytes {
		wire = c.params.MinFrameBytes
	}
	return time.Duration(float64(wire*8) / c.params.Rate * float64(time.Second)), float64(wire * 8)
}

func (c *components) checkNode(node int) {
	if node < 0 || node >= c.fab.Hosts() {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", node, c.fab.Hosts()))
	}
}

func (c *components) checkRail(rail int) {
	if rail < 0 || rail >= c.fab.Ports() {
		panic(fmt.Sprintf("netsim: rail %d out of range", rail))
	}
}
