// Package expert builds the expert-designed collective algorithms the
// paper uses: the vendor-standard ring family (NCCL's workhorse), the
// double binary tree, and the hierarchical mesh (HM) algorithms of
// Appendix A developed for the testbed topology.
//
// Builders return plain ir.Algorithm values; correctness of every
// builder is enforced by collective.Check in tests.
package expert

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// mod is the non-negative modulo used throughout ring index arithmetic.
func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// RingAllGather builds the standard ring AllGather: at step s, rank r
// sends chunk (r−s) mod n to rank (r+1) mod n; after n−1 steps every
// rank holds every chunk. This is the running example of Fig. 5(a).
func RingAllGather(nRanks int) (*ir.Algorithm, error) {
	if nRanks < 2 {
		return nil, fmt.Errorf("expert: ring allgather needs ≥2 ranks, got %d", nRanks)
	}
	a := &ir.Algorithm{
		Name:    "Ring-AllGather",
		Op:      ir.OpAllGather,
		NRanks:  nRanks,
		NChunks: nRanks,
		NWarps:  16,
	}
	for r := 0; r < nRanks; r++ {
		peer := (r + 1) % nRanks
		for step := 0; step < nRanks-1; step++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src:   ir.Rank(r),
				Dst:   ir.Rank(peer),
				Step:  ir.Step(step),
				Chunk: ir.ChunkID(mod(r-step, nRanks)),
				Type:  ir.CommRecv,
			})
		}
	}
	return a, a.Validate()
}

// RingReduceScatter builds the standard ring ReduceScatter: at step s,
// rank r sends its partial sum of chunk (r−1−s) mod n to rank (r+1)
// mod n with recvReduceCopy. The last transfer of chunk c's chain
// (step n−2) is sent by rank c−1 into rank c, so rank r ends holding
// the full sum of chunk r — the operator's ownership convention.
func RingReduceScatter(nRanks int) (*ir.Algorithm, error) {
	if nRanks < 2 {
		return nil, fmt.Errorf("expert: ring reducescatter needs ≥2 ranks, got %d", nRanks)
	}
	a := &ir.Algorithm{
		Name:    "Ring-ReduceScatter",
		Op:      ir.OpReduceScatter,
		NRanks:  nRanks,
		NChunks: nRanks,
		NWarps:  16,
	}
	appendRingRS(a, 0, ir.Step(0))
	return a, a.Validate()
}

// appendRingRS emits the n−1 reduce-scatter ring steps starting at step
// base. The chunk sent by rank r at relative step s is (r−1−s) mod n, so
// after the final step rank r has fully reduced chunk r.
func appendRingRS(a *ir.Algorithm, _ int, base ir.Step) {
	n := a.NRanks
	for r := 0; r < n; r++ {
		peer := (r + 1) % n
		for s := 0; s < n-1; s++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src:   ir.Rank(r),
				Dst:   ir.Rank(peer),
				Step:  base + ir.Step(s),
				Chunk: ir.ChunkID(mod(r-1-s, n)),
				Type:  ir.CommRecvReduceCopy,
			})
		}
	}
}

// appendRingAG emits the n−1 all-gather ring steps starting at step
// base, under the convention that rank r initially holds (the reduced)
// chunk r.
func appendRingAG(a *ir.Algorithm, base ir.Step) {
	n := a.NRanks
	for r := 0; r < n; r++ {
		peer := (r + 1) % n
		for s := 0; s < n-1; s++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src:   ir.Rank(r),
				Dst:   ir.Rank(peer),
				Step:  base + ir.Step(s),
				Chunk: ir.ChunkID(mod(r-s, n)),
				Type:  ir.CommRecv,
			})
		}
	}
}

// RingAllReduce builds the standard two-phase ring AllReduce:
// ReduceScatter followed by AllGather, 2(n−1) steps in total. The two
// phases are annotated as stages for stage-level backends.
func RingAllReduce(nRanks int) (*ir.Algorithm, error) {
	if nRanks < 2 {
		return nil, fmt.Errorf("expert: ring allreduce needs ≥2 ranks, got %d", nRanks)
	}
	a := &ir.Algorithm{
		Name:    "Ring-AllReduce",
		Op:      ir.OpAllReduce,
		NRanks:  nRanks,
		NChunks: nRanks,
		NWarps:  16,
	}
	appendRingRS(a, 0, 0)
	appendRingAG(a, ir.Step(nRanks-1))
	a.StageBounds = []ir.Step{0, ir.Step(nRanks - 1)}
	return a, a.Validate()
}
