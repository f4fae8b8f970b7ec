package netsim

import (
	"testing"
)

// TestFailNodeBlackholesBothDirections: a failed node's frames vanish
// on send and on receive — the process is dead — while the NICs stay
// electrically up, so nothing else on the segment notices.
func TestFailNodeBlackholesBothDirections(t *testing.T) {
	sched, n := newNet(t, 3)
	var at1, at2 int
	n.SetHandler(1, func(Frame) { at1++ })
	n.SetHandler(2, func(Frame) { at2++ })

	n.FailNode(1)
	if n.NodeUp(1) {
		t.Fatal("NodeUp(1) = true after FailNode")
	}
	// Tx blackhole: the dead node's sends go nowhere.
	if err := n.Send(1, 0, 2, []byte("from the grave")); err != nil {
		t.Fatal(err)
	}
	// Rx blackhole: frames addressed to the dead node vanish on arrival.
	if err := n.Send(0, 0, 1, []byte("to the grave")); err != nil {
		t.Fatal(err)
	}
	// Third parties are untouched.
	if err := n.Send(0, 1, 2, []byte("bystander")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if at1 != 0 || at2 != 1 {
		t.Fatalf("deliveries: node1=%d node2=%d, want 0 and 1", at1, at2)
	}
	if got := n.Stats(0).DroppedNodeDown; got != 2 {
		t.Fatalf("rail-0 DroppedNodeDown = %d, want 2", got)
	}

	// The NICs never failed: the node's hardware is up even though the
	// process is not.
	for rail := 0; rail < 2; rail++ {
		if !n.ComponentUp(n.Cluster().NIC(1, rail)) {
			t.Fatalf("NIC(1,%d) went down with the process", rail)
		}
	}

	n.RestoreNode(1)
	if !n.NodeUp(1) {
		t.Fatal("NodeUp(1) = false after RestoreNode")
	}
	if err := n.Send(0, 0, 1, []byte("welcome back")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if at1 != 1 {
		t.Fatalf("post-restore deliveries to node 1 = %d, want 1", at1)
	}
}

// TestFailNodeInFlightFrame: a frame already serialized onto the wire
// when its receiver dies is dropped at delivery time — exactly what a
// dead process does to a frame the NIC still DMA'd in.
func TestFailNodeInFlightFrame(t *testing.T) {
	sched, n := newNet(t, 2)
	delivered := 0
	n.SetHandler(1, func(Frame) { delivered++ })
	if err := n.Send(0, 0, 1, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	n.FailNode(1) // dies before the propagation delay elapses
	sched.Run(0)
	if delivered != 0 {
		t.Fatal("frame delivered to a node that died while it was in flight")
	}
	if got := n.Stats(0).DroppedNodeDown; got != 1 {
		t.Fatalf("DroppedNodeDown = %d, want 1", got)
	}
}

func TestNodeUpBoundsChecked(t *testing.T) {
	_, n := newNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("FailNode(-1) did not panic")
		}
	}()
	n.FailNode(-1)
}
