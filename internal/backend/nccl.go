package backend

import (
	"context"
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
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
	if req.Algo == nil || req.Topo == nil {
		return nil, fmt.Errorf("nccl: request needs algorithm metadata and topology")
	}
	if err := ctxCheck(ctx, "nccl", "algorithm construction"); err != nil {
		return nil, err
	}
	if !req.Protocol.Valid() {
		return nil, fmt.Errorf("nccl: undefined protocol tier %d", int(req.Protocol))
	}
	compileStart := time.Now()
	ch := ncclChannels
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
		rings = ringOrders(req.Topo, ch)
	}
	var (
		algo *ir.Algorithm
		err  error
	)
	switch req.Algo.Op {
	case ir.OpAllGather:
		algo, err = expert.ChannelizedRingAllGather(nRanks, ch, rings)
	case ir.OpAllReduce:
		algo, err = expert.ChannelizedRingAllReduce(nRanks, ch, rings)
	case ir.OpReduceScatter:
		algo, err = expert.ChannelizedRingReduceScatter(nRanks, ch, rings)
	case ir.OpBroadcast:
		algo, err = expert.ChannelizedRingBroadcast(nRanks, ch, rings)
	case ir.OpAllToAll:
		// Vendor libraries implement AllToAll as grouped point-to-point
		// sends; channel striping does not apply.
		algo, err = expert.DirectAllToAll(nRanks)
	default:
		return nil, fmt.Errorf("nccl: unsupported operator %v", req.Algo.Op)
	}
	if err != nil {
		return nil, err
	}
	if group != nil {
		algo, err = ir.Embed(algo, group, req.Topo.NRanks())
		if err != nil {
			return nil, err
		}
	}
	if err := ctxCheck(ctx, "nccl", "dependency analysis"); err != nil {
		return nil, err
	}
	g, err := dag.Build(algo, req.Topo)
	if err != nil {
		return nil, err
	}
	if err := ctxCheck(ctx, "nccl", "TB layout"); err != nil {
		return nil, err
	}
	// One (sendTB, recvTB) pair per connection per channel: partition
	// tasks by owning channel, then lay out connection TBs per channel.
	nCh := ch
	if algo.Op == ir.OpAllToAll {
		nCh = 1 // grouped p2p path: one channel
	}
	chunkBase := nRanks // chunk stripe size for ChannelOf
	perChannel := make([][]ir.TaskID, nCh)
	for t := range g.Tasks {
		c := 0
		if nCh > 1 {
			c = expert.ChannelOf(g.Tasks[t].Chunk, chunkBase)
		}
		perChannel[c] = append(perChannel[c], ir.TaskID(t))
	}
	var specs []tbSpec
	for c, tasks := range perChannel {
		specs = append(specs, connectionTBs(g, tasks, fmt.Sprintf("ch%d/", c))...)
	}
	k, err := buildKernel(algo.Name, g, specs, kernel.MBMajor, kernel.ModeInterpreted)
	if err != nil {
		return nil, err
	}
	k.MBBarrier = true // algorithm-level (lazy) execution
	k.Protocol = req.Protocol
	stages := []obs.Stage{{Name: "compile", Duration: time.Since(compileStart)}}
	return vet(&Plan{Backend: n.Name(), Algo: algo, Kernel: k, Stages: stages}, req.Topo)
}
