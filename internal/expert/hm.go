package expert

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// The hierarchical mesh (HM) algorithms of Appendix A, designed for
// multi-node clusters of GPUsPerNode GPUs each: intra-node communication
// uses a full mesh (direct sends over NVSwitch), inter-node
// communication uses rings over "ring-aligned" peers — GPUs with the
// same local index on consecutive nodes.

func hmHeader(name string, op ir.OpType, nNodes, gpn int) (*ir.Algorithm, error) {
	if nNodes < 2 {
		return nil, fmt.Errorf("expert: %s needs ≥2 nodes, got %d", name, nNodes)
	}
	if gpn < 2 {
		return nil, fmt.Errorf("expert: %s needs ≥2 GPUs per node, got %d", name, gpn)
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

// HMAllGather builds the HM AllGather of Appendix A:
//
//	Broadcast 1 — each GPU broadcasts its own chunk full-mesh to local
//	peers and starts a ring broadcast to its ring-aligned peers across
//	nodes;
//	Broadcast 2 — each GPU rebroadcasts the chunks it received from
//	remote ring peers to all local GPUs (full mesh).
//
// Stage annotation: the two broadcasts are the two stages.
func HMAllGather(nNodes, gpn int) (*ir.Algorithm, error) {
	a, err := hmHeader("HM-AllGather", ir.OpAllGather, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	n := a.NRanks
	// Broadcast 1a: intra-node full mesh of the GPU's own chunk.
	for r := 0; r < n; r++ {
		node := r / gpn
		local := r % gpn
		for off := 0; off < gpn-1; off++ {
			peer := node*gpn + (local+off+1)%gpn
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(peer),
				Step: ir.Step(off), Chunk: ir.ChunkID(r), Type: ir.CommRecv,
			})
		}
	}
	// Broadcast 1b: inter-node ring over ring-aligned peers. At base
	// step b, rank r forwards chunk (r − b·gpn) mod n to rank
	// (r + gpn) mod n.
	for r := 0; r < n; r++ {
		peer := (r + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(peer),
				Step: ir.Step(b), Chunk: ir.ChunkID(ir.Mod(r-b*gpn, n)), Type: ir.CommRecv,
			})
		}
	}
	// Broadcast 2: rank r rebroadcasts the remote chunk it received at
	// ring step b — chunk (r − (b+1)·gpn) mod n — to all local peers.
	// Steps are numbered after all of Broadcast 1 so the two stages
	// occupy disjoint step ranges; the per-chunk dependency (rebroadcast
	// of the chunk received at ring step b happens after step b) is
	// preserved since stage2Base ≥ b for every b.
	stage2Base := max(gpn-2, nNodes-2) + 1
	for r := 0; r < n; r++ {
		node := r / gpn
		local := r % gpn
		for b := 0; b < nNodes-1; b++ {
			for off := 0; off < gpn-1; off++ {
				peer := node*gpn + (local+off+1)%gpn
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: ir.Rank(r), Dst: ir.Rank(peer),
					Step: ir.Step(stage2Base + b), Chunk: ir.ChunkID(ir.Mod(r-(b+1)*gpn, n)), Type: ir.CommRecv,
				})
			}
		}
	}
	a.StageBounds = []ir.Step{0, ir.Step(stage2Base)}
	return a, a.Validate()
}

// HMAllReduce builds the four-stage HM AllReduce exactly as written in
// the paper's ResCCLang example (Fig. 16):
//
//	(1) intra-node full-mesh ReduceScatter,
//	(2) inter-node ring ReduceScatter over ring-aligned peers,
//	(3) inter-node ring AllGather on the same chunk subset,
//	(4) intra-node full-mesh AllGather.
func HMAllReduce(nNodes, gpn int) (*ir.Algorithm, error) {
	a, err := hmHeader("HM-AllReduce", ir.OpAllReduce, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	n := a.NRanks
	nChunks := n
	// Stage 1: intra-node ReduceScatter (Fig. 16 lines 5–12).
	for node := 0; node < nNodes; node++ {
		for r := 0; r < gpn; r++ {
			for b := 0; b < nNodes; b++ {
				for off := 0; off < gpn-1; off++ {
					src := gpn*node + r
					dst := (r+off+1)%gpn + gpn*node
					step := b*(gpn-1) + off
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(src), Dst: ir.Rank(dst),
						Step: ir.Step(step), Chunk: ir.ChunkID(ir.Mod(dst+b*gpn, nChunks)),
						Type: ir.CommRecvReduceCopy,
					})
				}
			}
		}
	}
	// Stage 2: inter-node ring ReduceScatter (lines 13–19).
	interRSBase := nNodes * (gpn - 1)
	for src := 0; src < n; src++ {
		dst := (src + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: ir.Rank(dst),
				Step: ir.Step(interRSBase + b), Chunk: ir.ChunkID(ir.Mod(src-b*gpn, nChunks)),
				Type: ir.CommRecvReduceCopy,
			})
		}
	}
	// Stage 3: inter-node ring AllGather (lines 20–27).
	interAGBase := interRSBase + nNodes - 1
	for src := 0; src < n; src++ {
		dst := (src + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: ir.Rank(dst),
				Step: ir.Step(interAGBase + b), Chunk: ir.ChunkID(ir.Mod(src-(b+nNodes-1)*gpn, nChunks)),
				Type: ir.CommRecv,
			})
		}
	}
	// Stage 4: intra-node full-mesh AllGather (lines 28–35).
	intraAGBase := interAGBase + nNodes - 1
	for node := 0; node < nNodes; node++ {
		for r := 0; r < gpn; r++ {
			for b := 0; b < nNodes; b++ {
				for off := 0; off < gpn-1; off++ {
					src := gpn*node + r
					dst := (r+off+1)%gpn + gpn*node
					step := intraAGBase + b
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(src), Dst: ir.Rank(dst),
						Step: ir.Step(step), Chunk: ir.ChunkID(ir.Mod(src+b*gpn, nChunks)),
						Type: ir.CommRecv,
					})
				}
			}
		}
	}
	a.StageBounds = []ir.Step{0, ir.Step(interRSBase), ir.Step(interAGBase), ir.Step(intraAGBase)}
	return a, a.Validate()
}

// HMReduceScatter builds the two-stage hierarchical ReduceScatter used
// in the V100 evaluation (Fig. 11): intra-node full-mesh ReduceScatter
// followed by an inter-node ring ReduceScatter whose chunk indexing ends
// every chunk's full sum at its owner rank.
func HMReduceScatter(nNodes, gpn int) (*ir.Algorithm, error) {
	a, err := hmHeader("HM-ReduceScatter", ir.OpReduceScatter, nNodes, gpn)
	if err != nil {
		return nil, err
	}
	n := a.NRanks
	// Stage 1: intra-node ReduceScatter, as in HMAllReduce.
	for node := 0; node < nNodes; node++ {
		for r := 0; r < gpn; r++ {
			for b := 0; b < nNodes; b++ {
				for off := 0; off < gpn-1; off++ {
					src := gpn*node + r
					dst := (r+off+1)%gpn + gpn*node
					step := b*(gpn-1) + off
					a.Transfers = append(a.Transfers, ir.Transfer{
						Src: ir.Rank(src), Dst: ir.Rank(dst),
						Step: ir.Step(step), Chunk: ir.ChunkID(ir.Mod(dst+b*gpn, n)),
						Type: ir.CommRecvReduceCopy,
					})
				}
			}
		}
	}
	// Stage 2: inter-node ring ReduceScatter. At base step b, rank r
	// forwards the partial sum of chunk (r − (b+1)·gpn) mod n so the
	// final hop (b = nNodes−2, src = c − gpn) delivers chunk c into
	// rank c.
	base := nNodes * (gpn - 1)
	for src := 0; src < n; src++ {
		dst := (src + gpn) % n
		for b := 0; b < nNodes-1; b++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: ir.Rank(dst),
				Step: ir.Step(base + b), Chunk: ir.ChunkID(ir.Mod(src-(b+1)*gpn, n)),
				Type: ir.CommRecvReduceCopy,
			})
		}
	}
	a.StageBounds = []ir.Step{0, ir.Step(base)}
	return a, a.Validate()
}
