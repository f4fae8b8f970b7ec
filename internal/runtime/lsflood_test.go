package runtime

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/netsim"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// lsfloodSpec is the link-state flooding workload: a 24-node dual-rail
// hub, one flow per node to its ring successor every 250 ms, and,
// when loss is positive, that loss on back plane 0.
func lsfloodSpec(loss float64) ClusterSpec {
	const nodes = 24
	spec := ClusterSpec{Nodes: nodes, Protocol: ProtoLinkState, Seed: 1, Duration: 10 * time.Second}
	for n := 0; n < nodes; n++ {
		spec.Flows = append(spec.Flows, Flow{From: n, To: (n + 1) % nodes, Interval: 250 * time.Millisecond})
	}
	if loss > 0 {
		spec.Impairments = []chaos.Spec{{
			Comp:   topology.Dual(nodes).Backplane(0),
			Impair: netsim.Impairment{Loss: loss},
		}}
	}
	return spec
}

// resultDigest runs spec end to end and hashes every simulated output:
// the Result's flows, repairs, counters, utilization and trace, the
// number of scheduler events executed, and each rail's frame stats.
func resultDigest(t *testing.T, spec ClusterSpec) string {
	t.Helper()
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.ScheduleFlows()
	if err := c.ScheduleImpairments(); err != nil {
		t.Fatal(err)
	}
	c.RunUntil(spec.Duration)
	c.StopRouters()
	res := c.Finish()
	out := struct {
		Flows       []FlowResult
		Repairs     []Repair
		Counters    []map[string]int64
		Utilization []float64
		Trace       []trace.Event
		Executed    uint64
		Stats       []netsim.SegmentStats
	}{res.Flows, res.Repairs, res.Counters, res.Utilization, res.Trace.Events(),
		c.Scheduler().Executed(), nil}
	for rail := 0; rail < c.Spec().Rails; rail++ {
		out.Stats = append(out.Stats, c.Net().Stats(rail))
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestLinkStateFloodDigests pins the link-state flooding workload's
// simulated outputs. The digests were recorded before the LSA receive
// path was optimised; a speed-up of that path must reproduce them
// exactly, never re-record them.
func TestLinkStateFloodDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("10 s of simulated 24-node flooding")
	}
	for _, tc := range []struct {
		loss float64
		want string
	}{
		{0, "91c1904cec00e2d423f074d9a44fd99d0ef5335d74a79c5444d0263b95ff36dd"},
		{0.2, "fe55019184b05daf886b1f3720516a0a3c4a95bb3acafe82ee59455fe024b2cb"},
	} {
		if got := resultDigest(t, lsfloodSpec(tc.loss)); got != tc.want {
			t.Errorf("loss=%g: digest %s, want %s", tc.loss, got, tc.want)
		}
	}
}
