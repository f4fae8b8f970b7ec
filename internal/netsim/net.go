package netsim

import (
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// Net is the wire abstraction the rest of the simulator programs
// against: a deterministic, failable network connecting Nodes() hosts,
// each with Rails() ports. Two implementations exist — Network, the
// dual-rail shared-segment (or per-rail switched) model the paper
// studies, and FabricNet, the multi-hop switched-fabric generalization
// (fat-tree, BCube). Both embed one component core, so failures,
// process fail-stop and impairments mean the same on either; they
// differ only in how a frame moves and in the carrier, reachability
// and accounting views that follow from it. Component ids are the
// Fabric() shape's; Network's fabric is topology.FromCluster of its
// cluster, so they are the dense dual-rail Cluster ids.
type Net interface {
	// Shape.
	Nodes() int
	Rails() int
	Fabric() *topology.Fabric
	Scheduler() *simtime.Scheduler

	// Traffic.
	Send(src, rail, dst int, payload []byte) error
	SetHandler(node int, h Handler)
	SetTap(t Tap)

	// Component failures.
	Fail(c topology.Component)
	Restore(c topology.Component)
	FailDir(c topology.Component, dir Direction)
	RestoreDir(c topology.Component, dir Direction)
	ComponentUp(c topology.Component) bool
	DirUp(c topology.Component, dir Direction) bool
	FailedComponents() []topology.Component

	// Process (daemon) fail-stop.
	FailNode(node int)
	RestoreNode(node int)
	NodeUp(node int) bool

	// Gray-failure impairments.
	SetImpairment(c topology.Component, imp Impairment) error
	ClearImpairment(c topology.Component)
	ImpairmentOn(c topology.Component) (Impairment, bool)

	// Oracles.
	CarrierUp(src, peer, rail int) bool
	Reachable(src, dst int) bool

	// Accounting.
	Stats(rail int) SegmentStats
	Utilization(rail int) float64
}

var (
	_ Net = (*Network)(nil)
	_ Net = (*FabricNet)(nil)
)
