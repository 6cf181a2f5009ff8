package synth

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// Single-node synthesizer output. Real TACCL plans inside one server
// exhibit the same pathology the paper measures at scale: its sketches
// concentrate traffic on a hub GPU, a valid algorithm that leaves most
// NVSwitch links idle most of the time — the low link utilization of
// Table 1's first row.

func singleHeader(name string, op ir.OpType, gpn int) (*ir.Algorithm, error) {
	if gpn < 2 {
		return nil, fmt.Errorf("synth: %s needs ≥2 GPUs, got %d", name, gpn)
	}
	return &ir.Algorithm{
		Name:    name,
		Op:      op,
		NRanks:  gpn,
		NChunks: gpn,
		NWarps:  16,
	}, nil
}

// tacclAllGatherSingle builds a hub-and-spoke AllGather: every GPU ships
// its chunk to GPU 0, which then redistributes everything.
func tacclAllGatherSingle(gpn int) (*ir.Algorithm, error) {
	a, err := singleHeader("TACCL-AllGather", ir.OpAllGather, gpn)
	if err != nil {
		return nil, err
	}
	// Spokes → hub, serialized as the sketch solver emits them.
	for src := 1; src < gpn; src++ {
		a.Transfers = append(a.Transfers, ir.Transfer{
			Src: ir.Rank(src), Dst: 0,
			Step: ir.Step(src - 1), Chunk: ir.ChunkID(src), Type: ir.CommRecv,
		})
	}
	// Hub → spokes: chunk c goes to every GPU except its owner, one
	// step per chunk.
	base := gpn - 1
	for c := 0; c < gpn; c++ {
		for dst := 1; dst < gpn; dst++ {
			if dst == c {
				continue
			}
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: 0, Dst: ir.Rank(dst),
				Step: ir.Step(base + c), Chunk: ir.ChunkID(c), Type: ir.CommRecv,
			})
		}
	}
	return a, a.Validate()
}

// tacclAllReduceSingle reduces every chunk at the hub and broadcasts the
// results back — g× the optimal volume through one GPU's links.
func tacclAllReduceSingle(gpn int) (*ir.Algorithm, error) {
	a, err := singleHeader("TACCL-AllReduce", ir.OpAllReduce, gpn)
	if err != nil {
		return nil, err
	}
	for src := 1; src < gpn; src++ {
		for c := 0; c < gpn; c++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: 0,
				Step: ir.Step(src - 1), Chunk: ir.ChunkID(c), Type: ir.CommRecvReduceCopy,
			})
		}
	}
	base := gpn - 1
	for c := 0; c < gpn; c++ {
		for dst := 1; dst < gpn; dst++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: 0, Dst: ir.Rank(dst),
				Step: ir.Step(base + c), Chunk: ir.ChunkID(c), Type: ir.CommRecv,
			})
		}
	}
	return a, a.Validate()
}
