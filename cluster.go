package drsnet

import (
	"fmt"
	"time"

	"drsnet/internal/runtime"
)

// ClusterConfig configures a simulated DRS cluster.
type ClusterConfig struct {
	// Nodes is the number of servers (the deployed clusters ran 8–12).
	Nodes int
	// ProbeInterval is the DRS link-check period (default 1 s).
	ProbeInterval time.Duration
	// MissThreshold is the consecutive-miss count that declares a
	// link down (default 2).
	MissThreshold int
	// LossRate injects random frame loss (default 0).
	LossRate float64
	// StaggerProbes spreads each daemon's link checks across the
	// probe interval instead of bursting them at the round start.
	StaggerProbes bool
	// PreferLowLatency steers routes toward the rail with the lower
	// measured probe RTT (2x hysteresis).
	PreferLowLatency bool
	// Switched replaces the shared hubs with switched fabrics (every
	// node gets a dedicated full-rate port per rail).
	Switched bool
	// Seed drives the simulation's stochastic pieces.
	Seed uint64
}

// Message is an application datagram delivered by the cluster.
type Message struct {
	From, To int
	Data     []byte
	// At is the simulated delivery time.
	At time.Duration
}

// RouteInfo describes a node's current route to a peer.
type RouteInfo struct {
	// Kind is "direct", "relay" or "none".
	Kind string
	// Rail is the first-hop network (0 or 1).
	Rail int
	// Via is the next-hop server (the peer itself for direct routes).
	Via int
}

// RepairInfo records one completed DRS route repair.
type RepairInfo struct {
	Node, Peer int
	Latency    time.Duration
	Route      RouteInfo
}

// Cluster is a deterministic packet-level simulation of a dual-rail
// server cluster running one DRS daemon per node. Time only advances
// when Run is called, so failure injection and observation interleave
// exactly as scripted. A Cluster is not safe for concurrent use.
//
// Cluster is an interactive facade over internal/runtime: the runtime
// assembles and starts the cluster, and this type exposes the DRS
// daemons' observable state step by step.
type Cluster struct {
	cfg       ClusterConfig
	rt        *runtime.Cluster
	delivered []Message
}

// NewCluster builds a healthy cluster and starts its DRS daemons.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := validateClusterSize(cfg.Nodes); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.MissThreshold == 0 {
		cfg.MissThreshold = 2
	}
	c := &Cluster{cfg: cfg}
	rt, err := runtime.Build(runtime.ClusterSpec{
		Nodes:    cfg.Nodes,
		Protocol: runtime.ProtoDRS,
		Switched: cfg.Switched,
		LossRate: cfg.LossRate,
		Seed:     cfg.Seed,
		Tunables: runtime.Tunables{
			ProbeInterval:    cfg.ProbeInterval,
			MissThreshold:    cfg.MissThreshold,
			StaggerProbes:    cfg.StaggerProbes,
			PreferLowLatency: cfg.PreferLowLatency,
		},
		OnDeliver: func(at time.Duration, src, dst int, data []byte) {
			c.delivered = append(c.delivered, Message{
				From: src, To: dst,
				Data: append([]byte(nil), data...),
				At:   at,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	c.rt = rt
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// Nodes returns the cluster size.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Now returns the current simulated time.
func (c *Cluster) Now() time.Duration { return c.rt.Now() }

// Run advances the simulation by d of simulated time.
func (c *Cluster) Run(d time.Duration) {
	c.rt.RunFor(d)
}

// Send hands an application datagram from node from to node to. The
// DRS routes it over whatever path currently survives; during an
// undetected failure it may be lost, exactly as on real hardware.
func (c *Cluster) Send(from, to int, data []byte) error {
	if err := c.checkNode(from); err != nil {
		return err
	}
	if err := c.checkNode(to); err != nil {
		return err
	}
	return c.rt.Router(from).SendData(to, data)
}

// Delivered returns every application message delivered so far.
func (c *Cluster) Delivered() []Message {
	return append([]Message(nil), c.delivered...)
}

// FailNIC takes down the NIC of node on rail.
func (c *Cluster) FailNIC(node, rail int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	if err := c.checkRail(rail); err != nil {
		return err
	}
	net := c.rt.Net()
	net.Fail(net.Fabric().NIC(node, rail))
	return nil
}

// RestoreNIC brings the NIC of node on rail back up.
func (c *Cluster) RestoreNIC(node, rail int) error {
	if err := c.checkNode(node); err != nil {
		return err
	}
	if err := c.checkRail(rail); err != nil {
		return err
	}
	net := c.rt.Net()
	net.Restore(net.Fabric().NIC(node, rail))
	return nil
}

// FailBackplane takes down an entire shared network.
func (c *Cluster) FailBackplane(rail int) error {
	if err := c.checkRail(rail); err != nil {
		return err
	}
	net := c.rt.Net()
	net.Fail(net.Fabric().Switch(rail))
	return nil
}

// RestoreBackplane brings a shared network back up.
func (c *Cluster) RestoreBackplane(rail int) error {
	if err := c.checkRail(rail); err != nil {
		return err
	}
	net := c.rt.Net()
	net.Restore(net.Fabric().Switch(rail))
	return nil
}

// LinkUp reports whether node currently believes its path to peer on
// rail is healthy (the DRS monitoring state, not ground truth).
func (c *Cluster) LinkUp(node, peer, rail int) bool {
	d, _ := c.rt.Daemon(node)
	return d.LinkUp(peer, rail)
}

// RouteOf returns node's current route to peer.
func (c *Cluster) RouteOf(node, peer int) (RouteInfo, error) {
	if err := c.checkNode(node); err != nil {
		return RouteInfo{}, err
	}
	if err := c.checkNode(peer); err != nil {
		return RouteInfo{}, err
	}
	d, _ := c.rt.Daemon(node)
	rt := d.RouteTo(peer)
	return RouteInfo{Kind: rt.Kind.String(), Rail: rt.Rail, Via: rt.Via}, nil
}

// Repairs returns every completed route repair across the cluster.
func (c *Cluster) Repairs() []RepairInfo {
	var out []RepairInfo
	for node := 0; node < c.cfg.Nodes; node++ {
		d, ok := c.rt.Daemon(node)
		if !ok {
			continue
		}
		for _, r := range d.Repairs() {
			out = append(out, RepairInfo{
				Node:    node,
				Peer:    r.Peer,
				Latency: r.Latency(),
				Route:   RouteInfo{Kind: r.Route.Kind.String(), Rail: r.Route.Rail, Via: r.Route.Via},
			})
		}
	}
	return out
}

// PathRTT is the DRS's smoothed round-trip estimate for one monitored
// path.
type PathRTT struct {
	SRTT, RTTVar time.Duration
	Samples      int64
}

// RTTOf returns node's smoothed probe round-trip estimate toward peer
// on rail; ok is false before the first probe completes.
func (c *Cluster) RTTOf(node, peer, rail int) (PathRTT, bool) {
	if node < 0 || node >= c.cfg.Nodes {
		return PathRTT{}, false
	}
	d, _ := c.rt.Daemon(node)
	stats, ok := d.RTT(peer, rail)
	if !ok {
		return PathRTT{}, false
	}
	return PathRTT{SRTT: stats.SRTT, RTTVar: stats.RTTVar, Samples: stats.Samples}, true
}

// Utilization returns the fraction of rail capacity consumed so far —
// the observable cost of proactive monitoring (compare CostModel).
func (c *Cluster) Utilization(rail int) (float64, error) {
	if err := c.checkRail(rail); err != nil {
		return 0, err
	}
	return c.rt.Net().Utilization(rail), nil
}

// Stop halts every daemon. The cluster can still be inspected but no
// longer routes.
func (c *Cluster) Stop() {
	c.rt.StopRouters()
}

func (c *Cluster) checkNode(n int) error {
	if n < 0 || n >= c.cfg.Nodes {
		return fmt.Errorf("drsnet: node %d out of range [0,%d)", n, c.cfg.Nodes)
	}
	return nil
}

func (c *Cluster) checkRail(r int) error {
	if r < 0 || r >= 2 {
		return fmt.Errorf("drsnet: rail %d out of range [0,2)", r)
	}
	return nil
}
