package expert

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
)

// Channelized ring algorithms: NCCL splits every collective across
// nChannels independent channels, each served by its own thread blocks
// and each following its own ring permutation (real NCCL searches the
// topology for per-channel rings so different channels use different
// NVLink edges and NICs).
//
// We model a channel as a disjoint chunk stripe: channel ch owns chunks
// [ch·nRanks, (ch+1)·nRanks), so chunk c belongs to rank c mod nRanks —
// preserving the operator ownership convention — and channels never
// share data dependencies.

func channelHeader(name string, op ir.OpType, nRanks, nChannels int) (*ir.Algorithm, error) {
	if nRanks < 2 {
		return nil, fmt.Errorf("expert: %s needs ≥2 ranks, got %d", name, nRanks)
	}
	if nChannels < 1 {
		return nil, fmt.Errorf("expert: %s needs ≥1 channel, got %d", name, nChannels)
	}
	return &ir.Algorithm{
		Name:      name,
		Op:        op,
		NRanks:    nRanks,
		NChunks:   nRanks * nChannels,
		NChannels: nChannels,
		NWarps:    16,
	}, nil
}

// ChannelOf returns the channel that owns chunk c under the striping
// convention above.
func ChannelOf(c ir.ChunkID, nRanks int) int { return int(c) / nRanks }

// Rings supplies one ring permutation per channel: rings[ch][i] is the
// rank at ring position i. A nil Rings (or nil entry) means the identity
// ring 0→1→…→n−1→0.
type Rings [][]int

// ring returns channel ch's permutation, nil for the identity ring.
func (rs Rings) ring(ch, nRanks int) ([]int, error) {
	if ch >= len(rs) || rs[ch] == nil {
		return nil, nil
	}
	ring := rs[ch]
	if len(ring) != nRanks {
		return nil, fmt.Errorf("expert: channel %d ring has %d ranks, want %d", ch, len(ring), nRanks)
	}
	seen := make([]bool, nRanks)
	for _, r := range ring {
		if r < 0 || r >= nRanks || seen[r] {
			return nil, fmt.Errorf("expert: channel %d ring %v is not a permutation", ch, ring)
		}
		seen[r] = true
	}
	return ring, nil
}

// at returns the rank at position i of ring, a nil ring being the
// identity.
func at(ring []int, i int) int {
	if ring == nil {
		return i
	}
	return ring[i]
}

// appendPermutedRing emits one channel's ring transfers. At relative
// step s, the rank at ring position i sends chunk
// base + ring[(i+chunkOff−s) mod n] to position i+1, with the given comm
// type. chunkOff selects the phase convention: 0 for AllGather (rank
// sends its own chunk first), −1 for ReduceScatter (so chunk c's full
// sum lands on rank c).
func appendPermutedRing(a *ir.Algorithm, ring []int, base, stepBase, chunkOff int, ct ir.CommType) {
	n := a.NRanks
	for i := 0; i < n; i++ {
		src, dst := at(ring, i), at(ring, (i+1)%n)
		for s := 0; s < n-1; s++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(src), Dst: ir.Rank(dst),
				Step:  ir.Step(stepBase + s),
				Chunk: ir.ChunkID(base + at(ring, ir.Mod(i+chunkOff-s, n))),
				Type:  ct,
			})
		}
	}
}

// ChannelizedRingAllGather builds nChannels independent ring AllGathers
// over the given per-channel ring permutations.
func ChannelizedRingAllGather(nRanks, nChannels int, rings Rings) (*ir.Algorithm, error) {
	a, err := channelHeader("Ring-AllGather", ir.OpAllGather, nRanks, nChannels)
	if err != nil {
		return nil, err
	}
	for ch := 0; ch < nChannels; ch++ {
		ring, err := rings.ring(ch, nRanks)
		if err != nil {
			return nil, err
		}
		appendPermutedRing(a, ring, ch*nRanks, 0, 0, ir.CommRecv)
	}
	return a, a.Validate()
}

// ChannelizedRingReduceScatter builds nChannels independent ring
// ReduceScatters.
func ChannelizedRingReduceScatter(nRanks, nChannels int, rings Rings) (*ir.Algorithm, error) {
	a, err := channelHeader("Ring-ReduceScatter", ir.OpReduceScatter, nRanks, nChannels)
	if err != nil {
		return nil, err
	}
	for ch := 0; ch < nChannels; ch++ {
		ring, err := rings.ring(ch, nRanks)
		if err != nil {
			return nil, err
		}
		appendPermutedRing(a, ring, ch*nRanks, 0, -1, ir.CommRecvReduceCopy)
	}
	return a, a.Validate()
}

// ChannelizedRingAllReduce builds nChannels independent two-phase ring
// AllReduces (ReduceScatter then AllGather).
func ChannelizedRingAllReduce(nRanks, nChannels int, rings Rings) (*ir.Algorithm, error) {
	a, err := channelHeader("Ring-AllReduce", ir.OpAllReduce, nRanks, nChannels)
	if err != nil {
		return nil, err
	}
	for ch := 0; ch < nChannels; ch++ {
		ring, err := rings.ring(ch, nRanks)
		if err != nil {
			return nil, err
		}
		appendPermutedRing(a, ring, ch*nRanks, 0, -1, ir.CommRecvReduceCopy)
		appendPermutedRing(a, ring, ch*nRanks, nRanks-1, 0, ir.CommRecv)
	}
	a.StageBounds = []ir.Step{0, ir.Step(nRanks - 1)}
	return a, a.Validate()
}

// ChannelizedRingBroadcast builds nChannels ring broadcasts from rank 0:
// each chunk travels down the ring, one hop per step, so hops for
// different chunks pipeline.
func ChannelizedRingBroadcast(nRanks, nChannels int, rings Rings) (*ir.Algorithm, error) {
	a, err := channelHeader("Ring-Broadcast", ir.OpBroadcast, nRanks, nChannels)
	if err != nil {
		return nil, err
	}
	for ch := 0; ch < nChannels; ch++ {
		ring, err := rings.ring(ch, nRanks)
		if err != nil {
			return nil, err
		}
		// Rotate the ring so the root (rank 0) is at position 0.
		rootAt := 0
		for i, r := range ring {
			if r == 0 {
				rootAt = i
				break
			}
		}
		base := ch * nRanks
		for c := 0; c < nRanks; c++ {
			for i := 0; i < nRanks-1; i++ {
				src := at(ring, (rootAt+i)%nRanks)
				dst := at(ring, (rootAt+i+1)%nRanks)
				a.Transfers = append(a.Transfers, ir.Transfer{
					Src: ir.Rank(src), Dst: ir.Rank(dst),
					Step: ir.Step(i), Chunk: ir.ChunkID(base + c), Type: ir.CommRecv,
				})
			}
		}
	}
	return a, a.Validate()
}
