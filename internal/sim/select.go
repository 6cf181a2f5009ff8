package sim

import (
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// Protocol auto-selection for the NCCL baseline. Real NCCL keeps a
// tuning table mapping (collective, message size, topology) to a
// protocol tier: LL below a few megabytes, LL128 through the tens of
// megabytes, Simple beyond. This file reproduces that table
// analytically from the simulator's own cost model, so the baseline's
// small-buffer behaviour tracks the library it emulates.
//
// Compilation is size-independent, so the tier is resolved at request
// time — where the buffer size is known — and travels on the backend
// Request into the plan-cache fingerprint.

// selectionChannels is the channel count the analytic model assumes,
// matching the NCCL backend's default. The switch points move only
// marginally with the channel count (it scales the per-micro-batch
// payload, not the per-hop cost ratio between tiers).
const selectionChannels = 4

// SelectProtocol picks the protocol tier NCCL would use for a
// collective of bufferBytes per rank on the topology: the
// highest-bandwidth tier whose analytic completion estimate wins at
// that size. Thresholds come from ProtocolSwitchPoints, so the choice
// is monotone in size by construction: LL, then LL128, then Simple.
func SelectProtocol(tp *topo.Topology, op ir.OpType, bufferBytes int64) ir.Protocol {
	llMax, ll128Max := ProtocolSwitchPoints(tp, op)
	switch {
	case bufferBytes <= llMax:
		return ir.ProtoLL
	case bufferBytes <= ll128Max:
		return ir.ProtoLL128
	default:
		return ir.ProtoSimple
	}
}

// ProtocolSwitchPoints returns the largest per-rank buffer sizes (in
// bytes) at which LL and LL128 are still selected: sizes ≤ llMax run
// LL, sizes in (llMax, ll128Max] run LL128, larger sizes run Simple.
// llMax ≤ ll128Max always holds. The points are found by scanning a
// geometric size grid and comparing per-tier analytic completion
// estimates; each tier's estimate grows with size at a rate ordered
// inversely to its effective bandwidth, so the winning tier transitions
// LL → LL128 → Simple exactly once each.
func ProtocolSwitchPoints(tp *topo.Topology, op ir.OpType) (llMax, ll128Max int64) {
	const (
		minSize int64 = 1 << 10 // 1 KiB
		maxSize int64 = 1 << 32 // 4 GiB: deep in Simple territory everywhere
	)
	for s := minSize; s <= maxSize; s *= 2 {
		tLL := estimateCompletion(tp, op, s, ir.ProtoLL)
		tLL128 := estimateCompletion(tp, op, s, ir.ProtoLL128)
		tSimple := estimateCompletion(tp, op, s, ir.ProtoSimple)
		// Ties favour the higher-bandwidth tier, matching NCCL's
		// preference for Simple when protocols measure equal.
		if tLL < tLL128 && tLL < tSimple {
			llMax = s
		}
		if tLL128 < tSimple {
			ll128Max = s
		}
	}
	if ll128Max < llMax {
		ll128Max = llMax
	}
	return llMax, ll128Max
}

// estimateCompletion is the closed-form completion estimate of the NCCL
// channelized-ring plan for one tier: nMB micro-batches, each paying
// `steps` serialized hops of (scaled startup α + interpreter cost +
// chunk wire time) on the bottleneck link. It mirrors the simulator's
// micro-batch geometry via simcost.PlanFor and simcost.Params;
// contention between channels is tier-independent and drops out of the
// comparison.
func estimateCompletion(tp *topo.Topology, op ir.OpType, bufferBytes int64, proto ir.Protocol) float64 {
	params := simcost.Params(proto)
	nRanks := tp.NRanks()
	nChunks := nRanks * selectionChannels
	steps := nRanks - 1
	switch op {
	case ir.OpAllReduce:
		steps = 2 * (nRanks - 1) // reduce-scatter pass + all-gather pass
	case ir.OpAllToAll:
		nChunks = nRanks * nRanks // grouped p2p: no channel striping
		steps = 1
	}
	// Bottleneck path: the NIC for multi-node rings, a point-to-point
	// NVLink channel inside one server.
	alpha := tp.LatIntra.Seconds()
	bw := tp.NVLinkBW
	if tp.TBCapIntra < bw {
		bw = tp.TBCapIntra
	}
	if tp.NNodes > 1 {
		alpha = tp.LatInter.Seconds()
		bw = tp.NICBW
		if tp.TBCapInter < bw {
			bw = tp.TBCapInter
		}
	}
	plan := simcost.PlanFor(bufferBytes, params.EffectiveChunk(1<<20), nChunks)
	perHop := alpha*params.AlphaFactor + 2*tp.InterpCost.Seconds() +
		plan.ChunkBytes/(params.BWFactor*bw)
	return float64(plan.NMicroBatches) * float64(steps) * perHop
}
