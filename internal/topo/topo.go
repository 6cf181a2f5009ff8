// Package topo models the cluster fabric the paper evaluates on: servers
// of GPUs joined by an NVSwitch intra-node fabric, NICs shared by GPU
// pairs, and a two-tier Clos network between servers (§5.1).
//
// The topology exposes two views used by the rest of the system:
//
//   - a resource view for the flow-level simulator: every transfer path is
//     a set of capacity resources (GPU NVSwitch ports, NIC queues, the
//     point-to-point channel itself) over which bandwidth is shared;
//   - a link view for scheduling: the "communication links" of §3 whose
//     sharing between concurrently scheduled tasks constitutes a
//     communication dependency, and the "connections" of §4.4 that
//     baseline backends allocate one thread block each.
package topo

import (
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/ir"
)

// ResourceID names one capacity resource in the cluster. IDs are dense
// per topology; see Topology for the layout.
type ResourceID int

// LinkID names one communication link for dependency analysis. Link IDs
// share the ResourceID space: intra-node links are the per-pair channel
// resources, inter-node links are the NIC resources.
type LinkID = ResourceID

// ResourceKind distinguishes switch-port style resources (pure capacity
// sharing) from serializing links (capacity sharing plus the Eq. 1
// contention penalty γ·L(z) when overcommitted).
type ResourceKind int

// Resource kinds.
const (
	// KindSwitchPort shares bandwidth max-min with no extra penalty
	// (NVSwitch GPU ports: the switch is non-blocking).
	KindSwitchPort ResourceKind = iota
	// KindSerialLink pays the paper's γ·L(z) contention penalty when the
	// aggregate thread-level capability of its flows exceeds its
	// bandwidth (NICs and point-to-point channels).
	KindSerialLink
)

// Profile bundles the hardware constants of one GPU generation / fabric,
// including the cost-model parameters of Eq. 1.
type Profile struct {
	// Name labels the profile ("A100-NVSwitch-200G", "V100-100G").
	Name string

	// NVLinkBW is the intra-node port bandwidth per GPU in bytes/s.
	NVLinkBW float64
	// NICBW is one NIC's bandwidth in bytes/s.
	NICBW float64

	// LatIntra and LatInter are the per-chunk startup overheads α for
	// intra-node and inter-node transfers. The paper measures
	// λ_inter ≥ 2.5 × λ_intra (§4.3).
	LatIntra time.Duration
	LatInter time.Duration
	// LatCrossRack is the additional latency when the path crosses the
	// second Clos tier (different ToR).
	LatCrossRack time.Duration

	// TBCapIntra and TBCapInter are the sustained bandwidth a single
	// thread block can drive over an intra-node or inter-node path. The
	// default profiles follow the paper's Eq. 3–5 convention (β is the
	// inverse of the link bandwidth, so one TB drives a link at line
	// rate); the Fig. 4 microbenchmark probes the small-TB regime by
	// lowering TBCapInter to NICBW/4.
	TBCapIntra float64
	TBCapInter float64

	// Gamma scales the contention penalty L(z) of Eq. 1: when the
	// aggregate TB capability on a serializing link exceeds its
	// bandwidth by factor z, goodput is divided by 1 + Gamma·(z−1)².
	Gamma float64

	// InterpCost is the per-primitive-invocation overhead of a runtime
	// interpreter backend (loading and parsing the plan during
	// execution, §2.2). Direct kernels do not pay it.
	InterpCost time.Duration
	// KernelLoad is the one-time pipeline fill / kernel launch cost
	// t_Load of Eq. 5. Neither the simulator nor the analytic model
	// charges it; plan files and the plan-cache key carry it.
	KernelLoad time.Duration
}

// A100 returns the paper's primary testbed profile: A100 GPUs, 300 GB/s
// per-GPU NVSwitch bandwidth, 200 Gbps RoCE NICs shared by two GPUs.
func A100() Profile {
	return Profile{
		Name:         "A100-NVSwitch-200G",
		NVLinkBW:     300e9,
		NICBW:        25e9, // 200 Gb/s
		LatIntra:     6 * time.Microsecond,
		LatInter:     15 * time.Microsecond,
		LatCrossRack: 3 * time.Microsecond,
		TBCapIntra:   300e9, // one TB drives a point-to-point channel at full rate (Eq. 3-5: beta = 1/linkBW)
		TBCapInter:   25e9,  // one TB drives a NIC at line rate
		Gamma:        0.6,
		InterpCost:   1200 * time.Nanosecond,
		KernelLoad:   12 * time.Microsecond,
	}
}

// H100 returns a DGX-H100 class profile: 450 GB/s per-GPU NVSwitch
// bandwidth and 400 Gb/s InfiniBand NICs (one per GPU pair) — the
// system whose 17-43% communication overheads the paper's introduction
// cites as motivation.
func H100() Profile {
	return Profile{
		Name:         "H100-NVSwitch-400G",
		NVLinkBW:     450e9,
		NICBW:        50e9, // 400 Gb/s
		LatIntra:     5 * time.Microsecond,
		LatInter:     12 * time.Microsecond,
		LatCrossRack: 3 * time.Microsecond,
		TBCapIntra:   450e9,
		TBCapInter:   50e9,
		Gamma:        0.6,
		InterpCost:   1000 * time.Nanosecond,
		KernelLoad:   10 * time.Microsecond,
	}
}

// V100 returns the heterogeneous-cluster profile of §5.2: V100 GPUs on
// 100 Gbps RoCE.
func V100() Profile {
	return Profile{
		Name:         "V100-100G",
		NVLinkBW:     130e9,
		NICBW:        12.5e9, // 100 Gb/s
		LatIntra:     8 * time.Microsecond,
		LatInter:     22 * time.Microsecond,
		LatCrossRack: 4 * time.Microsecond,
		TBCapIntra:   130e9,
		TBCapInter:   12.5e9,
		Gamma:        0.7,
		InterpCost:   1600 * time.Nanosecond,
		KernelLoad:   16 * time.Microsecond,
	}
}

// Topology is an immutable description of one cluster: NNodes servers of
// GPUsPerNode GPUs each, NICsPerNode NICs per server (GPUs share NICs
// evenly), ServersPerRack servers under each ToR switch.
//
// Flat topologies (New) model the inter-node fabric as non-blocking
// beyond the NIC queues. Multi-tier topologies (NewClos, NewRail) add an
// explicit leaf/spine tier: every rack owns one uplink/downlink resource
// pair per spine, cross-rack paths traverse the deterministically chosen
// spine, and carving a spine link reroutes paths over the surviving
// spines (Path probes in deterministic order), so replanning survives
// spine failures.
type Topology struct {
	Profile

	NNodes         int
	GPUsPerNode    int
	NICsPerNode    int
	ServersPerRack int

	// NSpines is the number of spine switches above the rack (ToR/leaf)
	// tier; 0 on flat topologies built with New.
	NSpines int
	// SpineBW is the capacity of one rack↔spine link in bytes/s (only
	// meaningful when NSpines > 0): full bisection, the rack's aggregate
	// NIC bandwidth divided across its spine uplinks.
	SpineBW float64
	// RailOptimized marks rail-striped fabrics (NewRail): every GPU owns
	// a NIC, NICs with the same local index form a rail joined by one
	// rail switch spanning all nodes, and same-rail traffic bypasses the
	// spine tier entirely — even across racks.
	RailOptimized bool

	nRanks    int
	totalNICs int
	nRacks    int
	// Resource layout offsets. Pair channels exist per ordered
	// same-node GPU pair only (NNodes·GPUsPerNode² resources, not
	// NRanks²): cross-node transfers never touch a pair channel, and a
	// quadratic pair space would make 4096-rank topologies allocate
	// tens of millions of resource slots.
	offEgress, offIngress, offNICEg, offNICIn, offPair int
	offSpineUp, offSpineDown                           int
	nResources                                         int

	// Dead sets of a carved (degraded) topology; nil on healthy
	// topologies, so the common case costs nothing. See Carve.
	deadRes   map[ResourceID]bool
	deadRanks map[ir.Rank]bool
}

// Option customises topology construction.
type Option func(*Topology)

// WithNICs overrides the number of NICs per server (default
// GPUsPerNode/2, minimum 1).
func WithNICs(n int) Option { return func(t *Topology) { t.NICsPerNode = n } }

// WithServersPerRack overrides how many servers share a ToR (default 2).
func WithServersPerRack(n int) Option { return func(t *Topology) { t.ServersPerRack = n } }

// New builds a flat topology of nNodes servers with gpusPerNode GPUs
// each under the given hardware profile. It panics on non-positive
// dimensions; construction parameters are programmer input, not runtime
// data.
func New(nNodes, gpusPerNode int, p Profile, opts ...Option) *Topology {
	t := &Topology{
		Profile:        p,
		NNodes:         nNodes,
		GPUsPerNode:    gpusPerNode,
		NICsPerNode:    max(1, gpusPerNode/2),
		ServersPerRack: 2,
	}
	t.finish(nNodes, gpusPerNode, opts)
	return t
}

// NewClos builds a multi-tier Clos topology: racks of ServersPerRack
// servers under leaf (ToR) switches, joined by nSpines spine switches.
// Cross-rack paths traverse one rack-uplink and one rack-downlink spine
// resource chosen deterministically per (source rack, destination rack,
// source NIC) — an ECMP-style stripe — and fail over to surviving
// spines on carved topologies.
func NewClos(nNodes, gpusPerNode int, p Profile, nSpines int, opts ...Option) *Topology {
	if nSpines < 1 {
		panic(fmt.Sprintf("topo: clos needs ≥1 spine, got %d", nSpines))
	}
	t := &Topology{
		Profile:        p,
		NNodes:         nNodes,
		GPUsPerNode:    gpusPerNode,
		NICsPerNode:    max(1, gpusPerNode/2),
		ServersPerRack: 2,
		NSpines:        nSpines,
	}
	t.finish(nNodes, gpusPerNode, opts)
	return t
}

// NewRail builds a rail-optimized multi-tier topology: every GPU owns a
// NIC, the NICs with local index r across all nodes form rail r joined
// by one non-blocking rail switch, and only cross-rail traffic climbs
// to the nSpines spine tier. Same-rail inter-node paths therefore stay
// single-hop (no cross-rack latency, no spine resources) no matter how
// many racks apart the endpoints are — the NIC queues alone serialize
// them.
func NewRail(nNodes, gpusPerNode int, p Profile, nSpines int, opts ...Option) *Topology {
	if nSpines < 1 {
		panic(fmt.Sprintf("topo: rail fabric needs ≥1 spine, got %d", nSpines))
	}
	t := &Topology{
		Profile:        p,
		NNodes:         nNodes,
		GPUsPerNode:    gpusPerNode,
		NICsPerNode:    gpusPerNode, // rail striping: one NIC per GPU
		ServersPerRack: 2,
		NSpines:        nSpines,
		RailOptimized:  true,
	}
	t.finish(nNodes, gpusPerNode, opts)
	if t.NICsPerNode != gpusPerNode {
		panic(fmt.Sprintf("topo: rail fabric requires one NIC per GPU, got %d NICs for %d GPUs/node",
			t.NICsPerNode, gpusPerNode))
	}
	return t
}

// finish applies options, validates dimensions and computes the dense
// resource layout shared by all constructors.
func (t *Topology) finish(nNodes, gpusPerNode int, opts []Option) {
	if nNodes < 1 || gpusPerNode < 1 {
		panic(fmt.Sprintf("topo: invalid dimensions %d nodes × %d GPUs", nNodes, gpusPerNode))
	}
	for _, o := range opts {
		o(t)
	}
	if t.NICsPerNode < 1 || t.NICsPerNode > gpusPerNode {
		panic(fmt.Sprintf("topo: invalid NICsPerNode %d for %d GPUs/node", t.NICsPerNode, gpusPerNode))
	}
	if t.ServersPerRack < 1 {
		panic(fmt.Sprintf("topo: invalid ServersPerRack %d", t.ServersPerRack))
	}
	t.nRanks = nNodes * gpusPerNode
	t.totalNICs = nNodes * t.NICsPerNode
	t.nRacks = (nNodes + t.ServersPerRack - 1) / t.ServersPerRack
	if t.NSpines > 0 {
		// Full bisection: a rack's aggregate NIC bandwidth spread across
		// its spine uplinks.
		t.SpineBW = float64(t.ServersPerRack*t.NICsPerNode) * t.NICBW / float64(t.NSpines)
	}
	t.offEgress = 0
	t.offIngress = t.nRanks
	t.offNICEg = 2 * t.nRanks
	t.offNICIn = t.offNICEg + t.totalNICs
	t.offPair = t.offNICIn + t.totalNICs
	t.offSpineUp = t.offPair + nNodes*gpusPerNode*gpusPerNode
	t.offSpineDown = t.offSpineUp + t.nRacks*t.NSpines
	t.nResources = t.offSpineDown + t.nRacks*t.NSpines
}

// NRanks is the total number of GPUs.
func (t *Topology) NRanks() int { return t.nRanks }

// NResources is the size of the dense ResourceID space.
func (t *Topology) NResources() int { return t.nResources }

// Node returns the server index hosting rank r.
func (t *Topology) Node(r ir.Rank) int { return int(r) / t.GPUsPerNode }

// LocalIndex returns r's index within its server.
func (t *Topology) LocalIndex(r ir.Rank) int { return int(r) % t.GPUsPerNode }

// SameNode reports whether a and b are on the same server.
func (t *Topology) SameNode(a, b ir.Rank) bool { return t.Node(a) == t.Node(b) }

// Rack returns the rack (ToR) index of a server.
func (t *Topology) Rack(node int) int { return node / t.ServersPerRack }

// NIC returns the global NIC index serving rank r. GPUs are assigned to
// NICs in contiguous groups, matching the testbed where every two GPUs
// share one NIC.
func (t *Topology) NIC(r ir.Rank) int {
	perNIC := t.GPUsPerNode / t.NICsPerNode
	if perNIC == 0 {
		perNIC = 1
	}
	local := t.LocalIndex(r) / perNIC
	if local >= t.NICsPerNode {
		local = t.NICsPerNode - 1
	}
	return t.Node(r)*t.NICsPerNode + local
}

// Resource identifiers.

// EgressPort returns rank r's NVSwitch egress port resource.
func (t *Topology) EgressPort(r ir.Rank) ResourceID { return ResourceID(t.offEgress + int(r)) }

// IngressPort returns rank r's NVSwitch ingress port resource.
func (t *Topology) IngressPort(r ir.Rank) ResourceID { return ResourceID(t.offIngress + int(r)) }

// NNICs returns the cluster-wide NIC count.
func (t *Topology) NNICs() int { return t.totalNICs }

// NICResources returns both queue resources (egress, ingress) of global
// NIC n — the pair a NIC flap takes down together.
func (t *Topology) NICResources(n int) (eg, in ResourceID) {
	return t.NICEgress(n), t.NICIngress(n)
}

// NICEgress returns the egress resource of global NIC n.
func (t *Topology) NICEgress(n int) ResourceID { return ResourceID(t.offNICEg + n) }

// NICIngress returns the ingress resource of global NIC n.
func (t *Topology) NICIngress(n int) ResourceID { return ResourceID(t.offNICIn + n) }

// PairLink returns the point-to-point channel resource for src→dst —
// the intra-node "communication link" of §3. Pair channels exist for
// same-node pairs only (cross-node transfers serialize on NIC queues,
// never on a pair channel); asking for a cross-node pair is a plan
// construction bug and panics.
func (t *Topology) PairLink(src, dst ir.Rank) ResourceID {
	if !t.SameNode(src, dst) {
		panic(fmt.Sprintf("topo: pair link %d→%d crosses nodes", src, dst))
	}
	g := t.GPUsPerNode
	return ResourceID(t.offPair + (t.Node(src)*g+t.LocalIndex(src))*g + t.LocalIndex(dst))
}

// NRacks returns the number of racks (leaf/ToR switches).
func (t *Topology) NRacks() int { return t.nRacks }

// SpineUp returns the rack→spine uplink resource (multi-tier
// topologies only; callers must keep s within [0, NSpines)).
func (t *Topology) SpineUp(rack, s int) ResourceID {
	return ResourceID(t.offSpineUp + rack*t.NSpines + s)
}

// SpineDown returns the spine→rack downlink resource.
func (t *Topology) SpineDown(rack, s int) ResourceID {
	return ResourceID(t.offSpineDown + rack*t.NSpines + s)
}

// Capacity returns a resource's bandwidth in bytes/s.
func (t *Topology) Capacity(res ResourceID) float64 {
	switch {
	case int(res) < t.offNICEg:
		return t.NVLinkBW
	case int(res) < t.offPair:
		return t.NICBW
	case int(res) < t.offSpineUp:
		return t.NVLinkBW
	default:
		return t.SpineBW
	}
}

// Kind returns whether the resource is a switch port or a serializing
// link for the purposes of the Eq. 1 contention penalty.
func (t *Topology) Kind(res ResourceID) ResourceKind {
	if int(res) < t.offNICEg {
		return KindSwitchPort
	}
	return KindSerialLink
}

// DescribeResource renders a resource ID for traces.
func (t *Topology) DescribeResource(res ResourceID) string {
	i := int(res)
	switch {
	case i < t.offIngress:
		return fmt.Sprintf("nv-egress(gpu%d)", i-t.offEgress)
	case i < t.offNICEg:
		return fmt.Sprintf("nv-ingress(gpu%d)", i-t.offIngress)
	case i < t.offNICIn:
		return fmt.Sprintf("nic-egress(%d)", i-t.offNICEg)
	case i < t.offPair:
		return fmt.Sprintf("nic-ingress(%d)", i-t.offNICIn)
	case i < t.offSpineUp:
		p := i - t.offPair
		g := t.GPUsPerNode
		node := p / (g * g)
		return fmt.Sprintf("pair(%d→%d)", node*g+(p/g)%g, node*g+p%g)
	case i < t.offSpineDown:
		p := i - t.offSpineUp
		return fmt.Sprintf("spine-up(rack%d→spine%d)", p/t.NSpines, p%t.NSpines)
	default:
		p := i - t.offSpineDown
		return fmt.Sprintf("spine-down(spine%d→rack%d)", p%t.NSpines, p/t.NSpines)
	}
}

// Path is everything the simulator and scheduler need to know about
// moving one chunk from Src to Dst.
type Path struct {
	Src, Dst ir.Rank
	// Intra reports whether the path stays inside one server.
	Intra bool
	// Alpha is the per-chunk startup overhead α.
	Alpha time.Duration
	// TBCap is the per-thread-block sustained bandwidth on this path.
	TBCap float64
	// Resources are all capacity resources the flow occupies.
	Resources []ResourceID
	// CommLinks is the subset of resources whose sharing between tasks
	// constitutes a communication dependency (§3): the point-to-point
	// channel for intra-node paths, the two NIC queues for inter-node.
	CommLinks []ResourceID
}

// InstanceCost is the cost of one task instance on p with no
// contention: p's startup α scaled by alphaFactor, plus wireChunk bytes
// at p's thread-block capability. The simulator charges every instance
// at least this much, since a thread block never moves bytes faster
// than its capability. It is the one per-instance cost of the §3
// model: the §4.4 timeline, the certificate's floors and Eq. 3–5 all
// read it.
func (p *Path) InstanceCost(alphaFactor, wireChunk float64) float64 {
	return p.Alpha.Seconds()*alphaFactor + wireChunk/p.TBCap
}

// Path computes the path from src to dst. It panics if src == dst (a
// transfer to self is a plan construction bug, caught earlier by
// ir.Transfer.Validate).
func (t *Topology) Path(src, dst ir.Rank) Path {
	if src == dst {
		panic(fmt.Sprintf("topo: path %d→%d to self", src, dst))
	}
	if t.SameNode(src, dst) {
		pair := t.PairLink(src, dst)
		return Path{
			Src: src, Dst: dst, Intra: true,
			Alpha:     t.LatIntra,
			TBCap:     t.TBCapIntra,
			Resources: []ResourceID{t.EgressPort(src), t.IngressPort(dst), pair},
			CommLinks: []ResourceID{pair},
		}
	}
	eg := t.NICEgress(t.NIC(src))
	in := t.NICIngress(t.NIC(dst))
	alpha := t.LatInter
	crossRack := t.Rack(t.Node(src)) != t.Rack(t.Node(dst))
	// Same-rail traffic on a rail-optimized fabric stays on the rail
	// switch: one hop regardless of rack, no spine traversal.
	sameRail := t.RailOptimized && t.LocalIndex(src) == t.LocalIndex(dst)
	if crossRack && !sameRail {
		alpha += t.LatCrossRack
	}
	resources := []ResourceID{eg, in}
	if t.NSpines > 0 && crossRack && !sameRail {
		srcRack, dstRack := t.Rack(t.Node(src)), t.Rack(t.Node(dst))
		s := t.spineFor(srcRack, dstRack, src)
		resources = []ResourceID{eg, t.SpineUp(srcRack, s), t.SpineDown(dstRack, s), in}
	}
	return Path{
		Src: src, Dst: dst, Intra: false,
		Alpha:     alpha,
		TBCap:     t.TBCapInter,
		Resources: resources,
		CommLinks: []ResourceID{eg, in},
	}
}

// spineFor picks the spine carrying srcRack→dstRack traffic from the
// given source: a deterministic ECMP-style stripe over (rack pair,
// source NIC), failing over in deterministic probe order to a spine
// whose uplink and downlink both survived carving. When every spine is
// dead for the pair the home spine is returned — the path is then dead
// and PathAlive reports it.
func (t *Topology) spineFor(srcRack, dstRack int, src ir.Rank) int {
	h := (srcRack*131 + dstRack*137 + t.NIC(src)) % t.NSpines
	if len(t.deadRes) == 0 {
		return h
	}
	for i := 0; i < t.NSpines; i++ {
		s := (h + i) % t.NSpines
		if !t.deadRes[t.SpineUp(srcRack, s)] && !t.deadRes[t.SpineDown(dstRack, s)] {
			return s
		}
	}
	return h
}

// LinkWindow returns how many transmission tasks driven by thread
// blocks of capability tbCap may occupy link l concurrently before the
// aggregate thread-level capability exceeds the link's bandwidth — the
// saturation point of Fig. 4 (four TBs per NIC). Scheduling more than
// this window onto a link constitutes a communication dependency (§3).
func (t *Topology) LinkWindow(l ResourceID, tbCap float64) int {
	if tbCap <= 0 {
		return 1
	}
	k := int(t.Capacity(l) / tbCap)
	if k < 1 {
		k = 1
	}
	return k
}

// --- degraded topologies (plan-level recovery) ---

// RankResources lists the capacity resources that belong exclusively to
// rank r: its NVSwitch ports and every point-to-point channel touching
// it (pair channels exist to same-node peers only). NIC queues are
// shared with the other ranks of the NIC and are not included — a dead
// rank does not take its neighbours' NIC down.
func (t *Topology) RankResources(r ir.Rank) []ResourceID {
	out := make([]ResourceID, 0, 2*t.GPUsPerNode)
	out = append(out, t.EgressPort(r), t.IngressPort(r))
	node := t.Node(r)
	for l := 0; l < t.GPUsPerNode; l++ {
		q := ir.Rank(node*t.GPUsPerNode + l)
		if q == r {
			continue
		}
		out = append(out, t.PairLink(r, q), t.PairLink(q, r))
	}
	return out
}

// Carve returns a copy of the topology with the given resources and
// ranks marked permanently dead (a dead rank also kills its exclusive
// resources, see RankResources). Carving composes: carving an already
// carved topology merges the dead sets. The receiver is not modified.
func (t *Topology) Carve(res []ResourceID, ranks []ir.Rank) (*Topology, error) {
	t2 := *t
	t2.deadRes = make(map[ResourceID]bool, len(t.deadRes)+len(res))
	for r := range t.deadRes {
		t2.deadRes[r] = true
	}
	t2.deadRanks = make(map[ir.Rank]bool, len(t.deadRanks)+len(ranks))
	for r := range t.deadRanks {
		t2.deadRanks[r] = true
	}
	for _, r := range res {
		if int(r) < 0 || int(r) >= t.nResources {
			return nil, fmt.Errorf("topo: carve names unknown resource %d", r)
		}
		t2.deadRes[r] = true
	}
	for _, r := range ranks {
		if r < 0 || int(r) >= t.nRanks {
			return nil, fmt.Errorf("topo: carve names unknown rank %d", r)
		}
		t2.deadRanks[r] = true
		for _, rr := range t.RankResources(r) {
			t2.deadRes[rr] = true
		}
	}
	return &t2, nil
}

// Carved reports whether the topology has any dead resources or ranks.
func (t *Topology) Carved() bool { return len(t.deadRes) > 0 || len(t.deadRanks) > 0 }

// ResourceAlive reports whether a resource survived carving.
func (t *Topology) ResourceAlive(r ResourceID) bool { return !t.deadRes[r] }

// RankAlive reports whether a rank survived carving.
func (t *Topology) RankAlive(r ir.Rank) bool { return !t.deadRanks[r] }

// AliveRanks returns the surviving ranks in ascending order.
func (t *Topology) AliveRanks() []ir.Rank {
	out := make([]ir.Rank, 0, t.nRanks-len(t.deadRanks))
	for r := 0; r < t.nRanks; r++ {
		if !t.deadRanks[ir.Rank(r)] {
			out = append(out, ir.Rank(r))
		}
	}
	return out
}

// PathAlive reports whether src→dst is usable on the carved topology:
// both endpoints alive and every resource of the path alive.
func (t *Topology) PathAlive(src, dst ir.Rank) bool {
	if t.deadRanks[src] || t.deadRanks[dst] {
		return false
	}
	if len(t.deadRes) == 0 {
		return true
	}
	for _, r := range t.Path(src, dst).Resources {
		if t.deadRes[r] {
			return false
		}
	}
	return true
}

// Connection identifies a directed GPU peer pair — the unit to which
// baseline backends statically assign one thread block each (§4.4).
type Connection struct {
	Src, Dst ir.Rank
}

// String formats the connection.
func (c Connection) String() string { return fmt.Sprintf("%d→%d", c.Src, c.Dst) }

// String summarises the topology.
func (t *Topology) String() string {
	base := fmt.Sprintf("%s: %d nodes × %d GPUs (%d ranks, %d NICs/node, %d servers/rack)",
		t.Profile.Name, t.NNodes, t.GPUsPerNode, t.nRanks, t.NICsPerNode, t.ServersPerRack)
	if t.NSpines > 0 {
		kind := "clos"
		if t.RailOptimized {
			kind = "rail"
		}
		base += fmt.Sprintf(", %s: %d racks × %d spines", kind, t.nRacks, t.NSpines)
	}
	return base
}
