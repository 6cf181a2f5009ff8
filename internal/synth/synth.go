// Package synth provides synthesizer substrates emulating TACCL and
// TECCL (§5.1): deterministic heuristic generators that produce valid
// collective algorithms with the structural properties the paper
// observes in real synthesizer output — hierarchical routing over
// communication sketches, relay-concentrated inter-node traffic with
// uneven per-link load (TACCL), and phase-serialized flow-style routing
// (TECCL, which has no native AllReduce: its AllReduce is assembled from
// ReduceScatter + AllGather, as the paper does in §5.2).
//
// The real synthesizers solve MILPs; the paper evaluates backends
// *executing* their plans, so what matters here is plan shape, not
// solver optimality. All generated plans pass the collective package's
// data-plane correctness check.
package synth

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

func header(name string, op ir.OpType, nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes < 2 || gpn < 2 {
		return nil, fmt.Errorf("synth: %s needs ≥2 nodes and ≥2 GPUs/node, got %d×%d", name, nNodes, gpn)
	}
	n := nNodes * gpn
	return &ir.Algorithm{
		Name:    name,
		Op:      op,
		NRanks:  n,
		NChunks: n,
		NWarps:  16,
	}, nil
}

// relay returns the local GPU index that the TACCL-style sketch routes
// (srcNode → dstNode) traffic through. Concentrating node-pair traffic
// on one relay per direction reproduces TACCL's uneven link load: with
// few nodes only a few locals carry all inter-node traffic.
func relay(srcNode, dstNode, gpn int) int { return (srcNode + dstNode) % gpn }

// TACCLAllGather emulates a TACCL-synthesized AllGather: sparse
// ring-based intra-node distribution (TACCL sketches keep each GPU
// talking to few peers), relay-concentrated inter-node shipping of every
// node's chunks, and a ring rebroadcast at the destination. Only the
// relay GPUs touch the network, reproducing TACCL's uneven link load.
func TACCLAllGather(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes == 1 {
		return tacclAllGatherSingle(gpn)
	}
	a, err := header("TACCL-AllGather", ir.OpAllGather, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	next := func(r int) int { return (r/gpn)*gpn + (r%gpn+1)%gpn }
	// Phase A (steps 0..gpn−2): intra-node ring AllGather of the node's
	// own chunks.
	for node := 0; node < nNodes; node++ {
		for l := 0; l < gpn; l++ {
			r := node*gpn + l
			for st := 0; st < gpn-1; st++ {
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: ir.Rank(r), Dst: ir.Rank(next(r)),
					Step: ir.Step(st), Chunk: ir.ChunkID(node*gpn + ir.Mod(l-st, gpn)),
					Type: ir.CommRecv,
				})
			}
		}
	}
	// Phase B: for every ordered node pair, the relay ships all gpn
	// chunks of the source node sequentially to the same relay index on
	// the destination node.
	baseB := gpn - 1
	for sn := 0; sn < nNodes; sn++ {
		for dn := 0; dn < nNodes; dn++ {
			if sn == dn {
				continue
			}
			rl := relay(sn, dn, gpn)
			src := sn*gpn + rl
			dst := dn*gpn + rl
			for k := 0; k < gpn; k++ {
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: ir.Rank(src), Dst: ir.Rank(dst),
					Step: ir.Step(baseB + k), Chunk: ir.ChunkID(sn*gpn + k), Type: ir.CommRecv,
				})
			}
		}
	}
	// Phase C: each received chunk travels the destination node's local
	// ring, one hop per step after its arrival.
	baseC := baseB + gpn
	for dn := 0; dn < nNodes; dn++ {
		for sn := 0; sn < nNodes; sn++ {
			if sn == dn {
				continue
			}
			rl := relay(sn, dn, gpn)
			for k := 0; k < gpn; k++ {
				chunk := ir.ChunkID(sn*gpn + k)
				for j := 0; j < gpn-1; j++ {
					holder := dn*gpn + (rl+j)%gpn
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(holder), Dst: ir.Rank(next(holder)),
						Step: ir.Step(baseC + k + j), Chunk: chunk, Type: ir.CommRecv,
					})
				}
			}
		}
	}
	return a, a.Validate()
}

// TACCLAllReduce emulates a TACCL-synthesized AllReduce assembled as
// ReduceScatter + AllGather with sparse ring intra-node phases and
// direct rep-to-owner inter-node routing: node partial sums converge on
// each chunk's owner through the owner's NIC (serialising there), then
// fan back out.
func TACCLAllReduce(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes == 1 {
		return tacclAllReduceSingle(gpn)
	}
	a, err := header("TACCL-AllReduce", ir.OpAllReduce, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	next := func(r int) int { return (r/gpn)*gpn + (r%gpn+1)%gpn }
	// Phase A (steps 0 .. nNodes(gpn−1)−1): intra-node ring
	// ReduceScatter, one ring pass per chunk group; afterwards local
	// index p holds the node partial of every chunk ≡ p (mod gpn).
	for node := 0; node < nNodes; node++ {
		for g := 0; g < nNodes; g++ {
			for l := 0; l < gpn; l++ {
				r := node*gpn + l
				for st := 0; st < gpn-1; st++ {
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(r), Dst: ir.Rank(next(r)),
						Step: ir.Step(g*(gpn-1) + st), Chunk: ir.ChunkID(g*gpn + ir.Mod(l-1-st, gpn)),
						Type: ir.CommRecvReduceCopy,
					})
				}
			}
		}
	}
	// Phase B: every node's representative sends its partial of chunk c
	// directly to c's owner, one step per contributing node.
	baseB := nNodes * (gpn - 1)
	n := a.NRanks
	for c := 0; c < n; c++ {
		ownNode := c / gpn
		k := 0
		for sn := 0; sn < nNodes; sn++ {
			if sn == ownNode {
				continue
			}
			rep := sn*gpn + c%gpn
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(rep), Dst: ir.Rank(c),
				Step: ir.Step(baseB + k), Chunk: ir.ChunkID(c), Type: ir.CommRecvReduceCopy,
			})
			k++
		}
	}
	// Phase C: the owner ships the fully reduced chunk back to the other
	// nodes' representatives.
	baseC := baseB + nNodes - 1
	for c := 0; c < n; c++ {
		ownNode := c / gpn
		k := 0
		for dn := 0; dn < nNodes; dn++ {
			if dn == ownNode {
				continue
			}
			rep := dn*gpn + c%gpn
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(c), Dst: ir.Rank(rep),
				Step: ir.Step(baseC + k), Chunk: ir.ChunkID(c), Type: ir.CommRecv,
			})
			k++
		}
	}
	// Phase D: intra-node ring AllGather of the reduced chunks, one ring
	// pass per group.
	baseD := baseC + nNodes - 1
	for node := 0; node < nNodes; node++ {
		for g := 0; g < nNodes; g++ {
			for l := 0; l < gpn; l++ {
				r := node*gpn + l
				for st := 0; st < gpn-1; st++ {
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(r), Dst: ir.Rank(next(r)),
						Step: ir.Step(baseD + g*(gpn-1) + st), Chunk: ir.ChunkID(g*gpn + ir.Mod(l-st, gpn)),
						Type: ir.CommRecv,
					})
				}
			}
		}
	}
	return a, a.Validate()
}

// TECCLAllGather emulates a TECCL-synthesized AllGather: flow-balanced
// ring routing over every local index (all NICs carry equal load, unlike
// TACCL), but with strictly phase-serialized steps — the lazy structure
// that algorithm-level execution cannot pipeline.
func TECCLAllGather(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes == 1 {
		return tecclAllGatherSingle(gpn)
	}
	a, err := header("TECCL-AllGather", ir.OpAllGather, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	n := a.NRanks
	// Phase A: intra full mesh of own chunks (steps 0..gpn−2).
	for r := 0; r < n; r++ {
		node, local := r/gpn, r%gpn
		for off := 0; off < gpn-1; off++ {
			peer := node*gpn + (local+off+1)%gpn
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(peer),
				Step: ir.Step(off), Chunk: ir.ChunkID(r), Type: ir.CommRecv,
			})
		}
	}
	// Phase B: inter-node ring per local index (steps gpn−1 ..
	// gpn−1+nNodes−2), forwarding own-track chunks.
	baseB := gpn - 1
	for r := 0; r < n; r++ {
		peer := (r + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(peer),
				Step: ir.Step(baseB + b), Chunk: ir.ChunkID(ir.Mod(r-b*gpn, n)), Type: ir.CommRecv,
			})
		}
	}
	// Phase C: intra rebroadcast of the remote chunks (steps after all
	// of phase B).
	baseC := baseB + nNodes - 1
	for r := 0; r < n; r++ {
		node, local := r/gpn, r%gpn
		for b := 0; b < nNodes-1; b++ {
			for off := 0; off < gpn-1; off++ {
				peer := node*gpn + (local+off+1)%gpn
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: ir.Rank(r), Dst: ir.Rank(peer),
					Step: ir.Step(baseC + b), Chunk: ir.ChunkID(ir.Mod(r-(b+1)*gpn, n)), Type: ir.CommRecv,
				})
			}
		}
	}
	return a, a.Validate()
}

// TECCLAllReduce assembles an AllReduce from TECCL-style ReduceScatter
// and AllGather phases using the paper's "general assembly technique"
// (§5.2): intra-mesh RS, inter-ring RS, inter-ring AG, intra-mesh AG —
// structurally like the expert HM algorithm but with fully serialized
// phase steps and no stage annotations, as synthesizer output has.
func TECCLAllReduce(nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes == 1 {
		return tecclAllReduceSingle(gpn)
	}
	a, err := header("TECCL-AllReduce", ir.OpAllReduce, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	n := a.NRanks
	// Intra RS.
	for node := 0; node < nNodes; node++ {
		for r := 0; r < gpn; r++ {
			for b := 0; b < nNodes; b++ {
				for off := 0; off < gpn-1; off++ {
					src := node*gpn + r
					dst := node*gpn + (r+off+1)%gpn
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(src), Dst: ir.Rank(dst),
						Step: ir.Step(b*(gpn-1) + off), Chunk: ir.ChunkID(ir.Mod(dst+b*gpn, n)),
						Type: ir.CommRecvReduceCopy,
					})
				}
			}
		}
	}
	// Inter ring RS.
	base2 := nNodes * (gpn - 1)
	for src := 0; src < n; src++ {
		dst := (src + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: ir.Rank(dst),
				Step: ir.Step(base2 + b), Chunk: ir.ChunkID(ir.Mod(src-b*gpn, n)),
				Type: ir.CommRecvReduceCopy,
			})
		}
	}
	// Inter ring AG.
	base3 := base2 + nNodes - 1
	for src := 0; src < n; src++ {
		dst := (src + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: ir.Rank(dst),
				Step: ir.Step(base3 + b), Chunk: ir.ChunkID(ir.Mod(src-(b+nNodes-1)*gpn, n)),
				Type: ir.CommRecv,
			})
		}
	}
	// Intra AG.
	base4 := base3 + nNodes - 1
	for node := 0; node < nNodes; node++ {
		for r := 0; r < gpn; r++ {
			for b := 0; b < nNodes; b++ {
				for off := 0; off < gpn-1; off++ {
					src := node*gpn + r
					dst := node*gpn + (r+off+1)%gpn
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(src), Dst: ir.Rank(dst),
						Step: ir.Step(base4 + b), Chunk: ir.ChunkID(ir.Mod(src+b*gpn, n)),
						Type: ir.CommRecv,
					})
				}
			}
		}
	}
	return a, a.Validate()
}
