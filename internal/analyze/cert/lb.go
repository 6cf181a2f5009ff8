package cert

import (
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// LowerBound computes an α–β lower bound (seconds) on the plan's
// completion for a per-rank payload of bufferBytes at a target chunk
// size of chunkBytes (≤0 = the 1 MiB default) under the kernel's
// protocol tier. It returns the combined bound and its latency and
// bandwidth components; the combined bound is their max.
//
// Every term is a true lower bound of the simulator's cost model:
//
//   - Latency / critical-path term: every instance pays α·AlphaFactor
//     startup and moves its chunk at no more than the path's per-TB
//     capability, instance m of a task depends on instance m of each
//     dependency, and one task's instances serialize on its own thread
//     block. So for any dependency chain the completion is at least the
//     chain's sum of per-instance costs plus the remaining n−1
//     instances of the chain's last task — a pipeline-aware
//     critical-path depth. A second serialization floor comes from the
//     thread blocks themselves: a task instance occupies both its send
//     and recv TB from startup to delivery and a TB executes its slots
//     serially, so completion ≥ the busiest TB's summed instance costs
//     (the channel-occupancy floor).
//
//   - Link-window term: a ResCCL kernel (non-empty LinkPreds) runs
//     link l's tasks in LinkWindows[l] chains of one task at a time,
//     and each of a task's n instances costs at least the per-instance
//     cost above, so completion ≥ the bottleneck link's
//     window-serialised work; see talloc.LinkWindowFloor for the
//     argument. Baseline kernels contend on links at run time instead,
//     so the term skips them.
//
//   - Plan link-cut term: for each capacity resource, the total wire
//     bytes of all tasks routed over it divided by its capacity. The
//     max-min allocator never exceeds a resource's capacity, so moving
//     B bytes across a resource of capacity C takes ≥ B/C regardless of
//     schedule. Wire bytes inflate by 1/BWFactor (LL pays 2×, LL128
//     128/120) exactly as the simulator does. This term is plan-aware:
//     it reflects the routing this plan actually chose.
//
//   - Operator min-cut terms: for a pristine collective (no repair
//     precondition, no group restriction) the operator's semantics
//     force a minimum number of chunks across every (entity, rest)
//     cut — per-rank, per-node NIC aggregate, and per-rack spine cut —
//     no matter which plan implements it. These are the SCCL-style
//     information-theoretic floors; they hold for any algorithm, so
//     they also bound this one.
func LowerBound(k *kernel.Kernel, tp *topo.Topology, bufferBytes, chunkBytes int64) (lb, latLB, bwLB float64) {
	if k == nil || k.Graph == nil || tp == nil || bufferBytes <= 0 {
		return 0, 0, 0
	}
	g := k.Graph
	if len(g.Tasks) == 0 {
		return 0, 0, 0
	}
	params := simcost.Params(k.Protocol)

	// Per-task wire payload: PlanFor guarantees n·chunk·NChunks == S,
	// so each task moves exactly S/NChunks payload bytes across its
	// path over the whole run, inflated to wire bytes by the tier.
	nChunks := g.Algo.NChunks
	if nChunks <= 0 {
		nChunks = 1
	}
	perTaskWire := float64(bufferBytes) / float64(nChunks) / params.BWFactor

	plan := simcost.PlanFor(bufferBytes, params.EffectiveChunk(chunkBytes), nChunks)
	wireChunk := plan.ChunkBytes / params.BWFactor
	latLB = latencyLB(g, params.AlphaFactor, wireChunk, plan.NMicroBatches)
	if tb := tbSerialLB(k, params.AlphaFactor, wireChunk, plan.NMicroBatches); tb > latLB {
		latLB = tb
	}
	if len(k.LinkPreds.Items) > 0 {
		if lw, _ := talloc.LinkWindowFloor(g, params.AlphaFactor, wireChunk, plan.NMicroBatches); lw > latLB {
			latLB = lw
		}
	}

	bwLB = planCutLB(g, tp, perTaskWire)
	if op := opCutLB(g.Algo, tp, perTaskWire); op > bwLB {
		bwLB = op
	}

	lb = latLB
	if bwLB > lb {
		lb = bwLB
	}
	return lb, latLB, bwLB
}

// boundNoise is the relative float error that the bound's and the
// simulator's different summation orders can leave between a plan's
// bound and a completion that meets it exactly.
const boundNoise = 1e-8

// BelowBound reports whether completion (seconds) undercuts the lower
// bound lb by more than float noise. For a simulated completion that is
// a counterexample to the bound; for the best completion measured so
// far it proves that a plan bounded by lb cannot match it.
func BelowBound(completion, lb float64) bool { return completion < lb*(1-boundNoise) }

// latencyLB is the pipeline-aware critical-path floor: per-instance
// costs chained along data dependencies (instance m waits for
// dependencies' instance m, so dependent tasks skew by one instance),
// plus the chain tail's remaining n−1 instances serialized on its own
// thread block.
func latencyLB(g *dag.Graph, alphaFactor, wireChunk float64, nMB int) float64 {
	per := func(t ir.TaskID) float64 { return g.Path(t).InstanceCost(alphaFactor, wireChunk) }
	tail := float64(nMB - 1)
	order, err := g.TopoOrder()
	best := 0.0
	if err != nil {
		// A cyclic graph is rejected elsewhere; fall back to the
		// heaviest single task, still a valid bound.
		for t := range g.Tasks {
			if v := float64(nMB) * per(ir.TaskID(t)); v > best {
				best = v
			}
		}
		return best
	}
	chain := make([]float64, len(g.Tasks))
	for _, t := range order {
		depth := 0.0
		for _, d := range g.Deps.Row(int(t)) {
			if chain[d] > depth {
				depth = chain[d]
			}
		}
		p := per(t)
		chain[t] = depth + p
		if v := chain[t] + float64(tail*p); v > best {
			best = v
		}
	}
	return best
}

// tbSerialLB is the channel-occupancy floor: every instance of a task
// occupies both its send and recv thread block for at least the
// instance cost, and a TB runs its slots serially, so no execution
// finishes before the busiest TB has worked through its load.
func tbSerialLB(k *kernel.Kernel, alphaFactor, wireChunk float64, nMB int) float64 {
	g := k.Graph
	if len(k.SendTB) != len(g.Tasks) || len(k.RecvTB) != len(g.Tasks) || len(k.TBs) == 0 {
		return 0
	}
	n := float64(nMB)
	busy := make([]float64, len(k.TBs))
	for t := range g.Tasks {
		per := g.Path(ir.TaskID(t)).InstanceCost(alphaFactor, wireChunk)
		if tb := k.SendTB[t]; tb >= 0 && tb < len(busy) {
			busy[tb] += float64(n * per)
		}
		if tb := k.RecvTB[t]; tb >= 0 && tb < len(busy) {
			busy[tb] += float64(n * per)
		}
	}
	best := 0.0
	for _, b := range busy {
		if b > best {
			best = b
		}
	}
	return best
}

// planCutLB is the max over capacity resources of assigned wire bytes
// over capacity.
func planCutLB(g *dag.Graph, tp *topo.Topology, perTaskWire float64) float64 {
	load := make(map[topo.ResourceID]float64)
	for t := range g.Tasks {
		for _, res := range g.Path(ir.TaskID(t)).Resources {
			load[res] += perTaskWire
		}
	}
	best := 0.0
	for res, b := range load {
		if !tp.ResourceAlive(res) {
			continue
		}
		c := tp.Capacity(res)
		if c <= 0 {
			continue
		}
		if v := b / c; v > best {
			best = v
		}
	}
	return best
}

// opCutLB is the max over (entity, rest) cuts of the operator's forced
// chunk traffic over the cut's aggregate capacity. Zero when the floors
// don't apply: repair plans (explicit Initial precondition), group
// collectives, carved topologies (participation changed), or N < 2.
func opCutLB(a *ir.Algorithm, tp *topo.Topology, perChunkWire float64) float64 {
	if a.Initial != nil || a.Group != nil || tp.Carved() {
		return 0
	}
	n := a.NRanks
	if n < 2 || a.NChunks <= 0 {
		return 0
	}
	best := 0.0
	consider := func(inChunks, outChunks, capIn, capOut float64) {
		if capIn > 0 {
			if v := inChunks * perChunkWire / capIn; v > best {
				best = v
			}
		}
		if capOut > 0 {
			if v := outChunks * perChunkWire / capOut; v > best {
				best = v
			}
		}
	}

	// Per-rank cut: a rank's traffic enters via its NVSwitch ingress
	// port and (inter-node) its NIC ingress queue; the sum of the two
	// capacities over-estimates any achievable ingress rate, which
	// keeps the bound sound.
	rankCap := 0.0
	if tp.GPUsPerNode > 1 {
		rankCap += tp.NVLinkBW
	}
	if tp.NNodes > 1 {
		rankCap += tp.NICBW
	}
	if rankCap > 0 {
		for _, root := range []bool{true, false} {
			in, out := opFloors(a.Op, a.NChunks, n, 1, root)
			consider(in, out, rankCap, rankCap)
		}
	}

	// Per-node cut: all of a node's external traffic crosses its NIC
	// queues (NVSwitch ports are intra-node only).
	if tp.NNodes > 1 {
		nodeCap := float64(tp.NICsPerNode) * tp.NICBW
		m := tp.GPUsPerNode
		for _, root := range []bool{true, false} {
			in, out := opFloors(a.Op, a.NChunks, n, m, root)
			consider(in, out, nodeCap, nodeCap)
		}
	}

	// Per-rack cut: cross-rack traffic crosses the rack's spine up/down
	// links — except on rail-optimized fabrics, where same-rail traffic
	// rides the rail switch past the spines, so the cut doesn't bound
	// there.
	if tp.NSpines > 0 && tp.NRacks() > 1 && !tp.RailOptimized {
		rackCap := float64(tp.NSpines) * tp.SpineBW
		m := tp.ServersPerRack * tp.GPUsPerNode
		if m < n {
			for _, root := range []bool{true, false} {
				in, out := opFloors(a.Op, a.NChunks, n, m, root)
				consider(in, out, rackCap, rackCap)
			}
		}
	}
	return best
}

// opFloors returns the minimum chunk traffic into and out of an entity
// of m ranks (out of n) that any plan implementing op must move. root
// selects the entity containing rank 0 (Broadcast's root).
func opFloors(op ir.OpType, nChunks, n, m int, root bool) (in, out float64) {
	if m <= 0 || m >= n {
		return 0, 0
	}
	fn, fm, fc := float64(n), float64(m), float64(nChunks)
	switch op {
	case ir.OpAllGather:
		// The entity must receive every chunk it doesn't own and emit
		// each of its own chunks at least once.
		return fc * (fn - fm) / fn, fc * fm / fn
	case ir.OpAllReduce:
		// Every chunk location needs outside contributions (reducible
		// to one combined message per location) and the entity's own
		// contributions must exit — the classic 2·S/N-per-rank floor.
		return fc, fc
	case ir.OpReduceScatter:
		// The entity ends owning its m/n share of reduced chunks and
		// must ship its contributions to the rest.
		return fc * fm / fn, fc * (fn - fm) / fn
	case ir.OpBroadcast:
		if root {
			return 0, fc
		}
		return fc, 0
	case ir.OpAllToAll:
		// Chunk s·n+d travels s→d: the entity exchanges its pairwise
		// blocks with every outside rank in both directions.
		x := fc * fm * (fn - fm) / (fn * fn)
		return x, x
	default:
		return 0, 0
	}
}
