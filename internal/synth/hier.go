package synth

import (
	"fmt"
	"math/bits"

	"github.com/resccl/resccl/internal/ir"
)

// Hierarchical collective composition à la HiCCL: instead of routing
// nRanks chunks through every rank (quadratic transfer counts that cap
// flat algorithms at a few dozen ranks), the collective factors into an
// intra-node stage × an inter-node stage over gpusPerNode chunks — one
// chunk per "rail" of same-local-index GPUs. Plan size then grows
// linearly in the rank count:
//
//	2·nNodes·gpn·(gpn−1)  intra-node mesh transfers
//	2·gpn·(nNodes−1)      inter-node binomial-tree transfers
//
// which is ~66K transfers for a 4096-rank (512×8) AllReduce versus
// ~134M for the flat O(n²) constructions — the difference between a
// plan that compiles, vets and simulates in seconds and one that cannot
// be built at all.

// HierAllReduce builds a hierarchical AllReduce over nNodes servers of
// gpn GPUs with NChunks = gpn, in four phases:
//
//  1. intra-node mesh ReduceScatter: local l ships chunk c to local c,
//     so local c accumulates the node's partial sum of chunk c;
//  2. per-rail binomial-tree reduce: the rank with local index c on
//     every node forms rail c; partial sums converge on node 0 up a
//     binomial tree (any node count, not just powers of two);
//  3. per-rail binomial-tree broadcast of the global sum back down;
//  4. intra-node mesh AllGather: local c fans chunk c out to the node's
//     other locals.
//
// On a rail-optimized fabric (topo.NewRail) phases 2–3 run entirely
// within rails — every inter-node transfer stays on one rail switch.
func HierAllReduce(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes < 2 || gpn < 2 {
		return nil, fmt.Errorf("synth: Hier-AllReduce needs ≥2 nodes and ≥2 GPUs/node, got %d×%d", nNodes, gpn)
	}
	a := &ir.Algorithm{
		Name:    "Hier-AllReduce",
		Op:      ir.OpAllReduce,
		NRanks:  nNodes * gpn,
		NChunks: gpn,
		NWarps:  16,
	}
	rank := func(node, local int) ir.Rank { return ir.Rank(node*gpn + local) }
	// Tree depth: rounds needed to cover nNodes leaves.
	depth := bits.Len(uint(nNodes - 1))

	// Phase 1 (steps 0..gpn−2): intra-node mesh ReduceScatter. The step
	// offset ir.Mod(l−c) keeps the gpn−1 reductions into each (local c,
	// chunk c) location on distinct steps.
	for node := 0; node < nNodes; node++ {
		for c := 0; c < gpn; c++ {
			for l := 0; l < gpn; l++ {
				if l == c {
					continue
				}
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: rank(node, l), Dst: rank(node, c),
					Step: ir.Step(ir.Mod(l-c, gpn) - 1), Chunk: ir.ChunkID(c),
					Type: ir.CommRecvReduceCopy,
				})
			}
		}
	}

	// Phase 2 (steps base2..base2+depth−1): binomial-tree reduce within
	// each rail. Node nd (≠0) sends its subtree's partial to
	// nd − 2^k at round k = trailing-zeros(nd); every child of a parent
	// arrives on a distinct earlier round, so step order carries the
	// tree's data dependencies.
	base2 := gpn - 1
	for c := 0; c < gpn; c++ {
		for nd := 1; nd < nNodes; nd++ {
			k := bits.TrailingZeros(uint(nd))
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: rank(nd, c), Dst: rank(nd-1<<k, c),
				Step: ir.Step(base2 + k), Chunk: ir.ChunkID(c),
				Type: ir.CommRecvReduceCopy,
			})
		}
	}

	// Phase 3 (steps base3..base3+depth−1): binomial-tree broadcast back
	// down the same rail, highest subtree first (the mirror image of the
	// reduce).
	base3 := base2 + depth
	for c := 0; c < gpn; c++ {
		for j := depth - 1; j >= 0; j-- {
			for nd := 0; nd+1<<j < nNodes; nd += 2 << j {
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: rank(nd, c), Dst: rank(nd+1<<j, c),
					Step: ir.Step(base3 + depth - 1 - j), Chunk: ir.ChunkID(c),
					Type: ir.CommRecv,
				})
			}
		}
	}

	// Phase 4 (steps base4..base4+gpn−2): intra-node mesh AllGather of
	// the now-global sums.
	base4 := base3 + depth
	for node := 0; node < nNodes; node++ {
		for c := 0; c < gpn; c++ {
			for l := 0; l < gpn; l++ {
				if l == c {
					continue
				}
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: rank(node, c), Dst: rank(node, l),
					Step: ir.Step(base4 + ir.Mod(l-c, gpn) - 1), Chunk: ir.ChunkID(c),
					Type: ir.CommRecv,
				})
			}
		}
	}
	return a, a.Validate()
}
