// Package simcost is the closed-form core of the simulator's cost
// model: the protocol-tier parameters (α scaling, wire-byte inflation,
// chunk caps) and the micro-batch geometry derived from a buffer size.
// It is a leaf package — internal/sim builds its event-driven engine on
// top of it, and the static analyses (internal/analyze's budget lints,
// internal/analyze/cert's lower bounds) price plans with the very same
// constants without linking the simulator, which keeps packages like
// internal/backend free of a sim dependency.
package simcost

import "github.com/resccl/resccl/internal/ir"

// DefaultChunkBytes is the chunk size assumed wherever a caller gives
// none (1 MiB): the compile pipeline's timeline analysis, the
// analyzer's cost model, the simulator and the public API share it.
const DefaultChunkBytes = 1 << 20

// ProtocolParams are the cost-model parameters of one protocol tier,
// applied on top of a path's base α/β constants:
//
//   - AlphaFactor scales the per-chunk startup latency α. LL's
//     flag-in-data synchronization skips the handshake round trip that
//     dominates α; LL128 keeps most of that win.
//   - BWFactor is the fraction of wire bandwidth that carries payload.
//     LL spends every second 8-byte word on a flag (1/2); LL128 spends 8
//     bytes per 128-byte line (120/128). The simulator charges it by
//     inflating the wire bytes of each chunk, so link capacities and
//     thread-block capabilities stay expressed in wire bytes and
//     contention between tiers remains physical.
//   - MaxChunkBytes caps the transfer chunk size (0 = uncapped). Real
//     NCCL shrinks its slice granularity under LL/LL128 so flag polling
//     granularity stays fine; here the cap is also what lets the
//     low-latency tiers win at small sizes, since a small buffer split
//     into sub-64KiB chunks amortizes α across micro-batches.
type ProtocolParams struct {
	AlphaFactor   float64
	BWFactor      float64
	MaxChunkBytes int64
}

// Params returns the cost-model parameters of a protocol tier.
// ProtoAuto resolves to ProtoSimple: a kernel whose protocol was never
// set simulates exactly as before the tier dimension existed.
func Params(p ir.Protocol) ProtocolParams {
	switch p {
	case ir.ProtoLL:
		return ProtocolParams{AlphaFactor: 0.2, BWFactor: 0.5, MaxChunkBytes: 64 << 10}
	case ir.ProtoLL128:
		return ProtocolParams{AlphaFactor: 0.4, BWFactor: 120.0 / 128.0, MaxChunkBytes: 256 << 10}
	default: // ProtoSimple, ProtoAuto
		return ProtocolParams{AlphaFactor: 1, BWFactor: 1, MaxChunkBytes: 0}
	}
}

// ceilDiv is ⌈a/b⌉ for a, b > 0.
func ceilDiv(a, b int64) int64 {
	n := a / b
	if a%b != 0 {
		n++
	}
	return n
}

// EffectiveChunk applies the tier's chunk cap to a requested chunk size
// (after substituting the 1 MiB default for non-positive requests, as
// PlanFor does).
func (p ProtocolParams) EffectiveChunk(chunkBytes int64) int64 {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if p.MaxChunkBytes > 0 && chunkBytes > p.MaxChunkBytes {
		chunkBytes = p.MaxChunkBytes
	}
	return chunkBytes
}

// Plan describes the derived micro-batch geometry of a run.
type Plan struct {
	// NMicroBatches is n of Eq. 3–5.
	NMicroBatches int
	// ChunkBytes is the effective per-transfer chunk size in bytes.
	ChunkBytes float64
}

// PlanFor derives the micro-batch count and effective chunk size from a
// buffer size: the buffer divides into NChunks chunks per micro-batch;
// n = ⌈S / (chunk·NChunks)⌉ with the chunk shrunk exactly so that
// n·chunk·NChunks == S.
func PlanFor(bufferBytes, chunkBytes int64, nChunks int) Plan {
	if bufferBytes <= 0 {
		bufferBytes = 1
	}
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	// ⌈⌈S/chunk⌉/NChunks⌉ = ⌈S/(chunk·NChunks)⌉, without the product or
	// the rounding sum, either of which overflows for sizes near 2^63.
	n := ceilDiv(ceilDiv(bufferBytes, chunkBytes), int64(nChunks))
	return Plan{
		NMicroBatches: int(n),
		ChunkBytes:    float64(bufferBytes) / (float64(n) * float64(nChunks)),
	}
}
