package simnet

import (
	"testing"
	"time"
)

func TestTopologyMapping(t *testing.T) {
	topo := Topology{RanksPerNode: 28, NUMADomains: 4}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// 7 ranks per NUMA domain.
	cases := []struct{ rank, node, numa int }{
		{0, 0, 0}, {6, 0, 0}, {7, 0, 1}, {13, 0, 1}, {14, 0, 2}, {27, 0, 3},
		{28, 1, 0}, {55, 1, 3}, {56, 2, 0},
	}
	for _, c := range cases {
		if got := topo.Node(c.rank); got != c.node {
			t.Errorf("Node(%d) = %d, want %d", c.rank, got, c.node)
		}
		if got := topo.NUMA(c.rank); got != c.numa {
			t.Errorf("NUMA(%d) = %d, want %d", c.rank, got, c.numa)
		}
	}
}

func TestTopologyLinkClasses(t *testing.T) {
	topo := Topology{RanksPerNode: 8, NUMADomains: 2}
	cases := []struct {
		a, b int
		want LinkClass
	}{
		{3, 3, SelfLink},
		{0, 1, SameNUMA},
		{0, 4, CrossNUMA},
		{0, 8, Network},
		{5, 13, Network},
		{4, 7, SameNUMA},
	}
	for _, c := range cases {
		if got := topo.Link(c.a, c.b); got != c.want {
			t.Errorf("Link(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := topo.Link(c.b, c.a); got != c.want {
			t.Errorf("Link(%d,%d) = %v, want %v (asymmetry)", c.b, c.a, got, c.want)
		}
	}
}

func TestTopologyValidate(t *testing.T) {
	if err := (Topology{RanksPerNode: 0, NUMADomains: 4}).Validate(); err == nil {
		t.Error("expected error for zero RanksPerNode")
	}
	if err := (Topology{RanksPerNode: 4, NUMADomains: 0}).Validate(); err == nil {
		t.Error("expected error for zero NUMADomains")
	}
}

func TestTopologyNodes(t *testing.T) {
	topo := Topology{RanksPerNode: 16, NUMADomains: 4}
	for _, c := range []struct{ p, nodes int }{{1, 1}, {16, 1}, {17, 2}, {2048, 128}} {
		if got := topo.Nodes(c.p); got != c.nodes {
			t.Errorf("Nodes(%d) = %d, want %d", c.p, got, c.nodes)
		}
	}
}

func TestMsgCostMonotoneInBytes(t *testing.T) {
	m := SuperMUC(16, true)
	small := m.MsgCost(0, 20, 64)
	large := m.MsgCost(0, 20, 1<<20)
	if small >= large {
		t.Errorf("cost must grow with size: %v vs %v", small, large)
	}
}

func TestMsgCostLinkOrdering(t *testing.T) {
	m := SuperMUC(28, true)
	// With equal payload: same-NUMA <= cross-NUMA <= network.
	const bytes = 4096
	sn := m.MsgCost(0, 1, bytes)   // same NUMA
	cn := m.MsgCost(0, 14, bytes)  // cross NUMA
	net := m.MsgCost(0, 30, bytes) // other node
	if !(sn <= cn && cn <= net) {
		t.Errorf("link cost ordering violated: %v, %v, %v", sn, cn, net)
	}
}

func TestPGASCheaperIntraNode(t *testing.T) {
	pgas := SuperMUC(28, true)
	mpi := SuperMUC(28, false)
	const bytes = 1 << 16
	if pgas.MsgCost(0, 1, bytes) >= mpi.MsgCost(0, 1, bytes) {
		t.Error("PGAS same-NUMA transfers must be cheaper than MPI")
	}
	if pgas.MsgCost(0, 14, bytes) >= mpi.MsgCost(0, 14, bytes) {
		t.Error("PGAS cross-NUMA transfers must be cheaper than MPI")
	}
	// Network pricing is identical in both modes.
	if pgas.MsgCost(0, 100, bytes) != mpi.MsgCost(0, 100, bytes) {
		t.Error("network pricing should not depend on the intra-node mode")
	}
}

func TestComputeCosts(t *testing.T) {
	m := SuperMUC(16, true)
	if m.SortCost(0) != 0 || m.SortCost(1) != 0 {
		t.Error("sorting <2 keys must be free")
	}
	if m.SortCost(1000) <= m.SortCost(100) {
		t.Error("sort cost must grow")
	}
	// Sort must be superlinear, merge ~linear in n.
	if m.SortCost(1<<20) <= 20*m.SortCost(1<<15) {
		t.Error("sort cost should be superlinear enough")
	}
	if m.MergeCost(0, 4) != 0 {
		t.Error("empty merge must be free")
	}
	if m.MergeCost(1000, 16) <= m.MergeCost(1000, 2) {
		t.Error("merge cost must grow with k")
	}
	if m.SearchCost(1, 10) != 0 || m.SearchCost(1024, 0) != 0 {
		t.Error("degenerate searches must be free")
	}
	if m.ScanCost(1000) <= 0 || m.SelectCost(100) <= 0 {
		t.Error("linear costs must be positive")
	}
}

func TestVirtualClock(t *testing.T) {
	c := NewClock(SuperMUC(16, true))
	if !c.Virtual() {
		t.Fatal("clock with model must be virtual")
	}
	if c.Now() != 0 {
		t.Fatal("virtual clock must start at zero")
	}
	c.Advance(5 * time.Millisecond)
	if c.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v", c.Now())
	}
	c.Arrive(3 * time.Millisecond) // in the past: no-op
	if c.Now() != 5*time.Millisecond {
		t.Fatal("Arrive must never move the clock backwards")
	}
	c.Arrive(9 * time.Millisecond)
	if c.Now() != 9*time.Millisecond {
		t.Fatalf("Now = %v after Arrive", c.Now())
	}
	c.Advance(-time.Second) // negative charges are ignored
	if c.Now() != 9*time.Millisecond {
		t.Fatal("negative Advance must be ignored")
	}
}

func TestRealClock(t *testing.T) {
	c := NewClock(nil)
	if c.Virtual() {
		t.Fatal("nil model must give a real clock")
	}
	before := c.Now()
	c.Advance(time.Hour) // no-op
	time.Sleep(time.Millisecond)
	after := c.Now()
	if after <= before {
		t.Fatal("real clock must move forward with wall time")
	}
	if after > time.Minute {
		t.Fatal("Advance must be a no-op on a real clock")
	}
}

func TestLinkClassString(t *testing.T) {
	for lc, want := range map[LinkClass]string{
		SelfLink: "self", SameNUMA: "same-numa", CrossNUMA: "cross-numa", Network: "network",
	} {
		if lc.String() != want {
			t.Errorf("String(%d) = %q", int(lc), lc.String())
		}
	}
	if LinkClass(99).String() != "LinkClass(99)" {
		t.Error("unknown class formatting")
	}
}
