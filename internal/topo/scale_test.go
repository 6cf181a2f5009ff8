package topo

import (
	"testing"

	"github.com/resccl/resccl/internal/ir"
)

// Multi-tier constructor invariants: the dense resource layout must
// account for every tier exactly once, at any scale.
func TestMultiTierResourceCounts(t *testing.T) {
	cases := []struct {
		name string
		tp   *Topology
	}{
		{"flat-4x8", New(4, 8, A100())},
		{"clos-8x8", NewClos(8, 8, A100(), 4)},
		{"clos-odd", NewClos(5, 4, A100(), 3, WithServersPerRack(3))},
		{"rail-8x8", NewRail(8, 8, A100(), 8)},
		{"clos-512x8", NewClos(512, 8, A100(), 16)},
		{"rail-512x8", NewRail(512, 8, A100(), 16)},
	}
	for _, tc := range cases {
		tp := tc.tp
		want := 2*tp.NRanks() + // NVSwitch egress + ingress ports
			2*tp.NNICs() + // NIC egress + ingress queues
			tp.NNodes*tp.GPUsPerNode*tp.GPUsPerNode + // same-node pair channels
			2*tp.NRacks()*tp.NSpines // spine up + downlinks
		if got := tp.NResources(); got != want {
			t.Errorf("%s: NResources = %d, want %d", tc.name, got, want)
		}
	}
	// The per-node pair layout keeps the resource space linear in rank
	// count: 4096 ranks must stay in the low hundreds of thousands, not
	// the 16.7M a global rank×rank matrix would cost.
	big := NewRail(512, 8, A100(), 16)
	if big.NResources() > 200_000 {
		t.Errorf("4096-rank resource space blew up: %d resources", big.NResources())
	}
}

// Spine resource IDs must be disjoint from every other tier and stay in
// range, including on carved copies.
func TestSpineResourceIDsDisjoint(t *testing.T) {
	tp := NewClos(8, 4, A100(), 3)
	seen := map[ResourceID]string{}
	add := func(id ResourceID, what string) {
		if prev, dup := seen[id]; dup {
			t.Fatalf("resource ID %d used by both %s and %s", id, prev, what)
		}
		if int(id) < 0 || int(id) >= tp.NResources() {
			t.Fatalf("%s resource ID %d outside [0,%d)", what, id, tp.NResources())
		}
		seen[id] = what
	}
	for r := 0; r < tp.NRanks(); r++ {
		add(tp.EgressPort(ir.Rank(r)), "egress")
		add(tp.IngressPort(ir.Rank(r)), "ingress")
	}
	for n := 0; n < tp.NNICs(); n++ {
		add(tp.NICEgress(n), "nic-eg")
		add(tp.NICIngress(n), "nic-in")
	}
	for a := 0; a < tp.NRanks(); a++ {
		for b := 0; b < tp.NRanks(); b++ {
			if tp.SameNode(ir.Rank(a), ir.Rank(b)) {
				add(tp.PairLink(ir.Rank(a), ir.Rank(b)), "pair")
			}
		}
	}
	for rack := 0; rack < tp.NRacks(); rack++ {
		for s := 0; s < tp.NSpines; s++ {
			add(tp.SpineUp(rack, s), "spine-up")
			add(tp.SpineDown(rack, s), "spine-down")
		}
	}
	if len(seen) != tp.NResources() {
		t.Errorf("enumerated %d resources, layout claims %d", len(seen), tp.NResources())
	}
}

// Rail striping: one NIC per GPU, and the NIC assignment must be the
// identity stripe — rank r's NIC is NIC r, so rail c is exactly the
// same-local-index GPUs across all nodes. PairLink must be unaffected
// by the NIC re-striping.
func TestRailStripingStable(t *testing.T) {
	rail := NewRail(6, 4, A100(), 4)
	flat := New(6, 4, A100())
	if rail.NICsPerNode != rail.GPUsPerNode {
		t.Fatalf("rail NICsPerNode = %d, want %d", rail.NICsPerNode, rail.GPUsPerNode)
	}
	for r := 0; r < rail.NRanks(); r++ {
		if got := rail.NIC(ir.Rank(r)); got != r {
			t.Errorf("rail NIC(%d) = %d, want %d (identity stripe)", r, got, r)
		}
	}
	for a := 0; a < rail.NRanks(); a++ {
		for b := 0; b < rail.NRanks(); b++ {
			if a == b || !rail.SameNode(ir.Rank(a), ir.Rank(b)) {
				continue
			}
			if rail.PairLink(ir.Rank(a), ir.Rank(b))-ResourceID(rail.offPair) !=
				flat.PairLink(ir.Rank(a), ir.Rank(b))-ResourceID(flat.offPair) {
				t.Fatalf("pair channel %d→%d moved under rail striping", a, b)
			}
		}
	}
	// panics if an option tries to undo the one-NIC-per-GPU stripe
	defer func() {
		if recover() == nil {
			t.Error("NewRail accepted WithNICs overriding the rail stripe")
		}
	}()
	NewRail(2, 4, A100(), 2, WithNICs(1))
}

// Rail-optimized same-rail traffic must stay off the spine tier and pay
// no cross-rack latency, however many racks apart; cross-rail traffic
// must climb to a spine and pay it.
func TestRailPathBypassesSpine(t *testing.T) {
	tp := NewRail(8, 4, A100(), 4) // 4 racks of 2 servers
	sameRail := tp.Path(0, 28)     // node 0 local 0 → node 7 local 0, racks 0 and 3
	if len(sameRail.Resources) != 2 {
		t.Fatalf("same-rail path should use only its NIC queues, got %d resources", len(sameRail.Resources))
	}
	if sameRail.Alpha != tp.LatInter {
		t.Errorf("same-rail alpha = %v, want %v (no cross-rack penalty)", sameRail.Alpha, tp.LatInter)
	}
	crossRail := tp.Path(0, 29) // node 0 local 0 → node 7 local 1
	if len(crossRail.Resources) != 4 {
		t.Fatalf("cross-rail cross-rack path should traverse a spine, got %d resources", len(crossRail.Resources))
	}
	if crossRail.Alpha <= sameRail.Alpha {
		t.Errorf("cross-rail alpha %v should exceed same-rail %v", crossRail.Alpha, sameRail.Alpha)
	}
	// Comm links stay the NIC queues either way: the spine adds capacity
	// sharing, not new scheduling dependencies.
	for _, p := range []Path{sameRail, crossRail} {
		if len(p.CommLinks) != 2 || p.CommLinks[0] != tp.NICEgress(tp.NIC(p.Src)) ||
			p.CommLinks[1] != tp.NICIngress(tp.NIC(p.Dst)) {
			t.Errorf("%d→%d comm links should be the NIC queues, got %v", p.Src, p.Dst, p.CommLinks)
		}
	}
}

// Clos cross-rack paths traverse exactly one spine (uplink from the
// source rack, downlink into the destination rack), chosen
// deterministically; same-rack paths never touch the spine tier.
func TestClosPathSpineSelection(t *testing.T) {
	tp := NewClos(8, 4, A100(), 4)
	same := tp.Path(0, 4) // node 0 → node 1, rack 0
	if len(same.Resources) != 2 {
		t.Fatalf("same-rack path should skip the spine tier, got %v", same.Resources)
	}
	cross := tp.Path(0, 28) // rack 0 → rack 3
	if len(cross.Resources) != 4 {
		t.Fatalf("cross-rack path should hold [nic-eg, spine-up, spine-down, nic-in], got %v", cross.Resources)
	}
	up, down := cross.Resources[1], cross.Resources[2]
	foundUp, foundDown := -1, -1
	for s := 0; s < tp.NSpines; s++ {
		if tp.SpineUp(0, s) == up {
			foundUp = s
		}
		if tp.SpineDown(3, s) == down {
			foundDown = s
		}
	}
	if foundUp < 0 || foundUp != foundDown {
		t.Fatalf("path must ride ONE spine end to end: uplink spine %d, downlink spine %d", foundUp, foundDown)
	}
	// Determinism: the same path must stripe to the same spine forever.
	for i := 0; i < 5; i++ {
		p := tp.Path(0, 28)
		if p.Resources[1] != up || p.Resources[2] != down {
			t.Fatal("spine selection is not deterministic")
		}
	}
}

// Carving a spine must fail traffic over to a surviving spine, and the
// path must only die when every spine for the rack pair is gone —
// replanning after spine failures depends on this.
func TestCarveSpineFailover(t *testing.T) {
	tp := NewClos(8, 4, A100(), 3)
	src, dst := ir.Rank(0), ir.Rank(28) // rack 0 → rack 3
	home := tp.Path(src, dst).Resources[1]
	carved, err := tp.Carve([]ResourceID{home}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !carved.PathAlive(src, dst) {
		t.Fatal("path died with 2 of 3 spines alive")
	}
	p := carved.Path(src, dst)
	if p.Resources[1] == home {
		t.Fatal("path still routed through the carved spine uplink")
	}
	for _, r := range p.Resources {
		if !carved.ResourceAlive(r) {
			t.Fatalf("failover path crosses dead resource %d", r)
		}
	}
	// Kill every uplink of rack 0: no spine can carry rack-0 egress.
	var all []ResourceID
	for s := 0; s < tp.NSpines; s++ {
		all = append(all, tp.SpineUp(0, s))
	}
	dead, err := tp.Carve(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dead.PathAlive(src, dst) {
		t.Fatal("path reported alive with every uplink of its source rack dead")
	}
	// Same-rack traffic never touches the spine tier and must survive.
	if !dead.PathAlive(0, 4) {
		t.Fatal("same-rack path died of spine failures it does not use")
	}
}

// Spine bandwidth is full bisection (a rack's aggregate NIC bandwidth
// spread over its uplinks).
func TestSpineBandwidth(t *testing.T) {
	tp := NewClos(8, 8, A100(), 4)
	want := float64(tp.ServersPerRack*tp.NICsPerNode) * tp.NICBW / float64(tp.NSpines)
	if got := tp.Capacity(tp.SpineUp(0, 0)); got != want {
		t.Errorf("spine capacity = %g, want full bisection %g", got, want)
	}
	if tp.Kind(tp.SpineUp(0, 0)) != KindSerialLink {
		t.Error("spine links must serialize (Eq. 1 contention applies)")
	}
}

// Constructors must reject meaningless spine counts.
func TestMultiTierPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewClos(2, 4, A100(), 0) },
		func() { NewRail(2, 4, A100(), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid multi-tier construction")
				}
			}()
			f()
		}()
	}
}
