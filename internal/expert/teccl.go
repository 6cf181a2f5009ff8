package expert

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// The TECCL emulations (§5.1). TECCL's flow-style plans route like the
// expert algorithms but number their steps phase by phase, the lazy
// structure algorithm-level execution cannot pipeline; TECCL has no
// native AllReduce, so its AllReduce is assembled from ReduceScatter +
// AllGather phases (§5.2). Except for the single-server AllGather, a
// two-hop relay plan, each emulation re-steps an expert builder and
// drops its stage annotations, as synthesizer output has none. They are
// registered as "synth:teccl-*", the prefix marking non-expert origin.

// tecclAllGather emulates a TECCL-synthesized AllGather. Across nodes
// it is the HM AllGather, its inter-node ring started after the
// intra-node mesh and its rebroadcast after the whole ring, so every
// NIC carries equal load (unlike TACCL) but no phase overlaps another.
func tecclAllGather(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes == 1 {
		return tecclAllGatherSingle(gpn)
	}
	return hmAllGather("TECCL-AllGather", nNodes, gpn, gpn-1, gpn-1+nNodes-1, nil)
}

// tecclAllReduce emulates TECCL's assembled AllReduce. Across nodes the
// assembly (intra-mesh RS, inter-ring RS, inter-ring AG, intra-mesh AG)
// is the HM AllReduce, transfer for transfer and step for step. Inside
// one server it is the full-mesh AllReduce with each source's sends
// serialized by parity: with half = ⌈n/2⌉, source src sends at step
// (src mod 2)·half + ⌊src/2⌋ of each phase, so writes into a chunk are
// totally ordered.
func tecclAllReduce(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes == 1 {
		half := (gpn + 1) / 2
		return meshAllReduce("TECCL-AllReduce", gpn, func(src, _ int) int { return (src%2)*half + src/2 }, 2*half, nil)
	}
	return hmAllReduce("TECCL-AllReduce", nNodes, gpn, nil)
}

// tecclAllGatherSingle routes every chunk through an intermediate relay
// (flow-style two-hop paths, as TECCL's multi-commodity formulation
// produces): GPU r ships its chunk to r+1, which then forwards it to the
// remaining peers. The forwarding dependency prevents lazy execution
// from overlapping the two hops.
func tecclAllGatherSingle(gpn int) (*ir.Algorithm, error) {
	if gpn < 2 {
		return nil, fmt.Errorf("expert: TECCL-AllGather needs ≥2 GPUs, got %d", gpn)
	}
	a := &ir.Algorithm{
		Name:    "TECCL-AllGather",
		Op:      ir.OpAllGather,
		NRanks:  gpn,
		NChunks: gpn,
		NWarps:  16,
	}
	for src := 0; src < gpn; src++ {
		relay := (src + 1) % gpn
		a.Transfers = append(a.Transfers, ir.Transfer{
			Src: ir.Rank(src), Dst: ir.Rank(relay),
			Step: 0, Chunk: ir.ChunkID(src), Type: ir.CommRecv,
		})
		for dst := 0; dst < gpn; dst++ {
			if dst == src || dst == relay {
				continue
			}
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(relay), Dst: ir.Rank(dst),
				Step: 1, Chunk: ir.ChunkID(src), Type: ir.CommRecv,
			})
		}
	}
	return a, a.Validate()
}
