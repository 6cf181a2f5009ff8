package backend

import (
	"context"
	"fmt"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// NCCL emulates the vendor-standard library: it runs its own channelized
// ring algorithm for the requested operator (custom algorithms are not
// supported, matching real NCCL), allocates one send and one recv TB per
// connection per channel, executes lazily at algorithm level (micro-batch
// major) and interprets the plan at runtime.
//
// Per-channel rings are topology-aware, as in real NCCL: within a node,
// channel ch visits GPUs with a stride coprime to the node size (so
// different channels use disjoint NVLink pair edges where possible), and
// channel starting offsets stagger the node-boundary crossings across
// NICs.
type NCCL struct{}

// ncclChannels is the number of parallel channels (Table 2 uses 4).
const ncclChannels = 4

// NewNCCL returns an NCCL-like backend.
func NewNCCL() *NCCL { return &NCCL{} }

// Name implements Backend.
func (n *NCCL) Name() string { return "NCCL" }

// ringOrders builds one ring permutation per channel for the topology.
// Within each node, channel ch follows a Walecki-style zigzag
// Hamiltonian path anchored at local index 2ch: zigzag paths with
// distinct anchors have (near-)disjoint directed NVLink edge sets, and
// their entry (anchor) and exit (anchor + gpn/2) locals land on
// different NICs across channels, so node-boundary crossings spread over
// all NICs — the balance real NCCL's topology search achieves.
func ringOrders(t *topo.Topology, nChannels int) expert.Rings {
	gpn := t.GPUsPerNode
	rings := make(expert.Rings, nChannels)
	for ch := 0; ch < nChannels; ch++ {
		anchor := (2 * ch) % gpn
		locals := zigzagPath(anchor, gpn)
		order := make([]int, 0, t.NRanks())
		for node := 0; node < t.NNodes; node++ {
			for _, l := range locals {
				order = append(order, node*gpn+l)
			}
		}
		rings[ch] = order
	}
	return rings
}

// zigzagPath returns the Hamiltonian path k, k+1, k−1, k+2, k−2, …
// (mod n) over the node's local indices.
func zigzagPath(k, n int) []int {
	out := make([]int, 0, n)
	for j := 0; j < n; j++ {
		var off int
		if j%2 == 1 {
			off = (j + 1) / 2
		} else {
			off = -j / 2
		}
		out = append(out, ((k+off)%n+n)%n)
	}
	return out
}

// Compile implements Backend. Only Algo.Op and Algo.NRanks of the
// request are honoured; the plan executes NCCL's own ring algorithm.
func (n *NCCL) Compile(ctx context.Context, req Request) (*Plan, error) {
	return compileConnectionBased(ctx, n.Name(), req, n.algorithm, n.partition)
}

// algorithm builds the channelized ring algorithm NCCL runs for the
// request's operator.
func (n *NCCL) algorithm(req Request) (*ir.Algorithm, error) {
	nRanks := req.Algo.NRanks
	if nRanks != req.Topo.NRanks() {
		return nil, fmt.Errorf("nccl: algorithm has %d ranks, topology %d", nRanks, req.Topo.NRanks())
	}
	group := req.Algo.Group
	var rings expert.Rings
	if group != nil {
		// Process-group communicator: ring over the group members in
		// order (topology search does not apply to sparse groups).
		nRanks = len(group)
	} else {
		rings = ringOrders(req.Topo, ncclChannels)
	}
	var (
		algo *ir.Algorithm
		err  error
	)
	switch req.Algo.Op {
	case ir.OpAllGather:
		algo, err = expert.ChannelizedRingAllGather(nRanks, ncclChannels, rings)
	case ir.OpAllReduce:
		algo, err = expert.ChannelizedRingAllReduce(nRanks, ncclChannels, rings)
	case ir.OpReduceScatter:
		algo, err = expert.ChannelizedRingReduceScatter(nRanks, ncclChannels, rings)
	case ir.OpBroadcast:
		algo, err = expert.ChannelizedRingBroadcast(nRanks, ncclChannels, rings)
	case ir.OpAllToAll:
		// Vendor libraries implement AllToAll as grouped point-to-point
		// sends; channel striping does not apply.
		algo, err = expert.DirectAllToAll(nRanks)
	default:
		return nil, fmt.Errorf("nccl: unsupported operator %v", req.Algo.Op)
	}
	if err != nil || group == nil {
		return algo, err
	}
	return ir.Embed(algo, group, req.Topo.NRanks())
}

// partition gives each channel, the owner of a stripe of chunks, its
// own (sendTB, recvTB) pair per connection, and runs lazily at
// algorithm level. AllToAll's grouped point-to-point path is one
// channel.
func (n *NCCL) partition(g *dag.Graph) ([]talloc.Part, bool) {
	nCh := ncclChannels
	if g.Algo.Op == ir.OpAllToAll {
		nCh = 1
	}
	chunkBase := g.Algo.NRanks // the chunk stripe of expert.ChannelOf
	if g.Algo.Group != nil {
		chunkBase = len(g.Algo.Group)
	}
	parts := make([]talloc.Part, nCh)
	for c := range parts {
		parts[c].Prefix = fmt.Sprintf("ch%d/", c)
	}
	for t := range g.Tasks {
		c := 0
		if nCh > 1 {
			c = expert.ChannelOf(g.Tasks[t].Chunk, chunkBase)
		}
		parts[c].Tasks = append(parts[c].Tasks, ir.TaskID(t))
	}
	return parts, true
}
