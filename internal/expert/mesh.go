package expert

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// MeshAllReduce builds the single-node full-mesh AllReduce used for
// tensor-parallel groups inside one server: a full-mesh ReduceScatter
// (every GPU sends chunk d directly to GPU d) followed by a full-mesh
// AllGather (every GPU broadcasts its reduced chunk), exploiting the
// NVSwitch's all-to-all connectivity in 2(n−1) steps: rank r's send to
// its (off+1)-th neighbour runs at step off of each phase.
func MeshAllReduce(nRanks int) (*ir.Algorithm, error) {
	return meshAllReduce("Mesh-AllReduce", nRanks, func(_, off int) int { return off }, nRanks-1, []ir.Step{0, ir.Step(nRanks - 1)})
}

// meshAllReduce emits the full-mesh AllReduce's transfers: rank r's
// ReduceScatter send to its (off+1)-th neighbour runs at step(r, off),
// its AllGather send at agBase+step(r, off).
func meshAllReduce(name string, nRanks int, step func(r, off int) int, agBase int, stages []ir.Step) (*ir.Algorithm, error) {
	if nRanks < 2 {
		return nil, fmt.Errorf("expert: %s needs ≥2 ranks, got %d", name, nRanks)
	}
	a := &ir.Algorithm{
		Name:    name,
		Op:      ir.OpAllReduce,
		NRanks:  nRanks,
		NChunks: nRanks,
		NWarps:  16,
	}
	// ReduceScatter: rank r sends chunk d to its neighbour d, which
	// reduces it in place.
	for r := 0; r < nRanks; r++ {
		for off := 0; off < nRanks-1; off++ {
			d := (r + off + 1) % nRanks
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(d),
				Step: ir.Step(step(r, off)), Chunk: ir.ChunkID(d), Type: ir.CommRecvReduceCopy,
			})
		}
	}
	// AllGather: rank r broadcasts its fully reduced chunk r.
	for r := 0; r < nRanks; r++ {
		for off := 0; off < nRanks-1; off++ {
			d := (r + off + 1) % nRanks
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(d),
				Step: ir.Step(agBase + step(r, off)), Chunk: ir.ChunkID(r), Type: ir.CommRecv,
			})
		}
	}
	a.StageBounds = stages
	return a, a.Validate()
}

// MeshAllGather builds the single-node full-mesh AllGather: every GPU
// broadcasts its own chunk to all peers in n−1 steps.
func MeshAllGather(nRanks int) (*ir.Algorithm, error) {
	if nRanks < 2 {
		return nil, fmt.Errorf("expert: mesh allgather needs ≥2 ranks, got %d", nRanks)
	}
	a := &ir.Algorithm{
		Name:    "Mesh-AllGather",
		Op:      ir.OpAllGather,
		NRanks:  nRanks,
		NChunks: nRanks,
		NWarps:  16,
	}
	for r := 0; r < nRanks; r++ {
		for off := 0; off < nRanks-1; off++ {
			d := (r + off + 1) % nRanks
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank(d),
				Step: ir.Step(off), Chunk: ir.ChunkID(r), Type: ir.CommRecv,
			})
		}
	}
	return a, a.Validate()
}
