package netsim

import (
	"reflect"
	"testing"
	"time"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// enginePair builds a dual-rail Network and a FabricNet over
// FromCluster of the same shape, on their own schedulers, same seed.
func enginePair(t *testing.T, cl topology.Cluster, seed uint64) (*Network, *FabricNet) {
	t.Helper()
	nw, err := New(simtime.NewScheduler(), cl, DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	fab, err := topology.FromCluster(cl)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := NewFabricNet(simtime.NewScheduler(), fab, DefaultParams(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return nw, fn
}

// sendSpaced sends frames unicast frames 0→1 on rail 0, one per
// millisecond so none queue, and returns the delivery times.
func sendSpaced(t *testing.T, n Net, frames int) []time.Duration {
	t.Helper()
	var at []time.Duration
	n.SetHandler(1, func(Frame) { at = append(at, n.Scheduler().Now().Duration()) })
	for i := 0; i < frames; i++ {
		n.Scheduler().At(simtime.Time(time.Duration(i)*time.Millisecond), func() {
			if err := n.Send(0, 0, 1, []byte("parity")); err != nil {
				t.Error(err)
			}
		})
	}
	n.Scheduler().Run(0)
	return at
}

// The receiver's NIC is one crossing, so both engines draw its
// impairment exactly once per frame: from the same seed they lose the
// same frames, and its delay is paid once.
func TestEngineParityReceiverNICDrawnOnce(t *testing.T) {
	const frames = 2000
	cl := topology.Dual(3)
	nw, fn := enginePair(t, cl, 7)
	rx := cl.NIC(1, 0)
	for _, n := range []Net{nw, fn} {
		if err := n.SetImpairment(rx, Impairment{Loss: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	a, b := len(sendSpaced(t, nw, frames)), len(sendSpaced(t, fn, frames))
	if a != b {
		t.Fatalf("delivered %d frames on Network, %d on FabricNet (want identical)", a, b)
	}
	if a < frames*3/4 || a > frames*17/20 {
		t.Fatalf("delivered %d of %d frames under loss 0.2", a, frames)
	}

	// Delay: the FabricNet frame arrives exactly one delay later than
	// an unimpaired one.
	const delay = 3 * time.Millisecond
	_, clean := enginePair(t, cl, 7)
	_, slow := enginePair(t, cl, 7)
	if err := slow.SetImpairment(rx, Impairment{Delay: delay}); err != nil {
		t.Fatal(err)
	}
	c, s := sendSpaced(t, clean, 1), sendSpaced(t, slow, 1)
	if len(c) != 1 || len(s) != 1 || s[0]-c[0] != delay {
		t.Fatalf("receiver NIC delay %v added %v, want it once", delay, s[0]-c[0])
	}
}

// A switch behind the sender's entry switch is crossed too: the
// destination ToR impaired with loss 1 eats every cross-pod frame.
func TestFabricNetTransitSwitchDrawn(t *testing.T) {
	sched, n := newFatTreeNet(t, 4)
	got := collect(n)
	tor := n.Fabric().Switch(n.Fabric().HostSwitch(15, 0))
	if err := n.SetImpairment(tor, Impairment{Loss: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n.Send(0, 0, 15, []byte("cross-pod")); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run(0)
	if len(*got) != 0 {
		t.Fatalf("%d of 10 frames crossed a loss-1 destination ToR", len(*got))
	}
	if s := n.Stats(0); s.DroppedImpaired != 10 {
		t.Fatalf("DroppedImpaired = %d, want 10", s.DroppedImpaired)
	}
}

// One script of failures, process crashes and impairments on NICs and
// back planes leaves both engines in identical component state after
// every step.
func TestEngineParityComponentState(t *testing.T) {
	cl := topology.Dual(4)
	nw, fn := enginePair(t, cl, 1)
	imp := Impairment{Loss: 0.1, Delay: time.Millisecond}
	script := []struct {
		name string
		do   func(n Net)
	}{
		{"fail nic", func(n Net) { n.Fail(cl.NIC(0, 0)) }},
		{"fail tx", func(n Net) { n.FailDir(cl.NIC(1, 1), DirTx) }},
		{"fail rx", func(n Net) { n.FailDir(cl.NIC(2, 0), DirRx) }},
		{"fail backplane", func(n Net) { n.Fail(cl.Backplane(1)) }},
		{"fail backplane rx", func(n Net) { n.FailDir(cl.Backplane(0), DirRx) }},
		{"fail node", func(n Net) { n.FailNode(3) }},
		{"impair nic", func(n Net) { _ = n.SetImpairment(cl.NIC(3, 1), imp) }},
		{"impair backplane", func(n Net) { _ = n.SetImpairment(cl.Backplane(0), imp) }},
		{"restore tx half", func(n Net) { n.RestoreDir(cl.NIC(1, 1), DirTx) }},
		{"restore rx of dead nic", func(n Net) { n.RestoreDir(cl.NIC(0, 0), DirRx) }},
		{"restore backplane", func(n Net) { n.Restore(cl.Backplane(1)) }},
		{"restore node", func(n Net) { n.RestoreNode(3) }},
		{"clear impairment", func(n Net) { n.ClearImpairment(cl.NIC(3, 1)) }},
		{"zero impairment clears", func(n Net) { _ = n.SetImpairment(cl.Backplane(0), Impairment{}) }},
		{"restore all", func(n Net) {
			for c := 0; c < cl.Components(); c++ {
				n.Restore(topology.Component(c))
			}
		}},
	}
	for _, step := range script {
		step.do(nw)
		step.do(fn)
		if a, b := nw.FailedComponents(), fn.FailedComponents(); !reflect.DeepEqual(a, b) {
			t.Fatalf("after %s: FailedComponents %v vs %v", step.name, a, b)
		}
		for node := 0; node < cl.Nodes; node++ {
			if nw.NodeUp(node) != fn.NodeUp(node) {
				t.Fatalf("after %s: NodeUp(%d) differs", step.name, node)
			}
		}
		for c := 0; c < cl.Components(); c++ {
			comp := topology.Component(c)
			if nw.ComponentUp(comp) != fn.ComponentUp(comp) {
				t.Fatalf("after %s: ComponentUp(%s) differs", step.name, cl.Name(comp))
			}
			for _, dir := range []Direction{DirBoth, DirTx, DirRx} {
				if nw.DirUp(comp, dir) != fn.DirUp(comp, dir) {
					t.Fatalf("after %s: DirUp(%s, %v) differs", step.name, cl.Name(comp), dir)
				}
			}
			ia, oka := nw.ImpairmentOn(comp)
			ib, okb := fn.ImpairmentOn(comp)
			if ia != ib || oka != okb {
				t.Fatalf("after %s: ImpairmentOn(%s) = %v,%v vs %v,%v", step.name, cl.Name(comp), ia, oka, ib, okb)
			}
		}
	}
	if got := nw.FailedComponents(); len(got) != 0 {
		t.Fatalf("script ends with %v still failed", got)
	}
}
