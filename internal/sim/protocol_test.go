package sim

import (
	"context"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// protoTiers are every tier a kernel can carry, auto included.
var protoTiers = []ir.Protocol{ir.ProtoAuto, ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple}

func compileNCCL(t *testing.T, op ir.OpType, tp *topo.Topology, proto ir.Protocol) *backend.Plan {
	t.Helper()
	algo := &ir.Algorithm{Name: "p-" + op.String(), Op: op, NRanks: tp.NRanks(), NChunks: tp.NRanks()}
	plan, err := backend.NewNCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp, Protocol: proto})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// simcost.Params must keep the tier ordering the cost model relies on:
// LL pays the least startup and carries the least payload per wire
// byte, Simple the reverse, and auto is exactly Simple.
func TestProtocolParamsOrdering(t *testing.T) {
	ll, ll128, simple := simcost.Params(ir.ProtoLL), simcost.Params(ir.ProtoLL128), simcost.Params(ir.ProtoSimple)
	if !(ll.AlphaFactor < ll128.AlphaFactor && ll128.AlphaFactor < simple.AlphaFactor) {
		t.Errorf("alpha factors not increasing: %v %v %v", ll.AlphaFactor, ll128.AlphaFactor, simple.AlphaFactor)
	}
	if !(ll.BWFactor < ll128.BWFactor && ll128.BWFactor < simple.BWFactor) {
		t.Errorf("bandwidth factors not increasing: %v %v %v", ll.BWFactor, ll128.BWFactor, simple.BWFactor)
	}
	if simple.BWFactor != 1 || simple.AlphaFactor != 1 || simple.MaxChunkBytes != 0 {
		t.Errorf("Simple must be the identity, got %+v", simple)
	}
	if simcost.Params(ir.ProtoAuto) != simple {
		t.Errorf("auto params %+v differ from Simple %+v", simcost.Params(ir.ProtoAuto), simple)
	}
	if got := ll.EffectiveChunk(1 << 20); got != ll.MaxChunkBytes {
		t.Errorf("LL effective chunk for 1MiB = %d, want cap %d", got, ll.MaxChunkBytes)
	}
	if got := simple.EffectiveChunk(0); got != 1<<20 {
		t.Errorf("Simple effective chunk for 0 = %d, want 1MiB default", got)
	}
}

// Completion must be non-decreasing in buffer size under every fixed
// protocol tier: more bytes can never finish earlier.
func TestProtocolCompletionMonotoneInBytes(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	for _, proto := range protoTiers {
		plan := compileNCCL(t, ir.OpAllReduce, tp, proto)
		prev := -1.0
		for buf := int64(64 << 10); buf <= 256<<20; buf *= 4 {
			res := run(t, plan, tp, buf)
			if res.Completion < prev {
				t.Errorf("%s: completion %.6gs at %d bytes is below %.6gs at the previous size",
					proto, res.Completion, buf, prev)
			}
			prev = res.Completion
		}
	}
}

// The auto-selected tier must never simulate meaningfully worse than the
// best forced tier: selection comes from an analytic estimate, so allow
// a small modelling tolerance, but a selection that loses badly to a
// forced tier means the tuning table and the simulator disagree.
func TestAutoSelectionNearBestForced(t *testing.T) {
	const tolerance = 1.15
	tp := topo.New(2, 8, topo.A100())
	maxBuf := int64(1 << 30)
	if testing.Short() {
		maxBuf = 64 << 20
	}
	for _, op := range []ir.OpType{ir.OpAllReduce, ir.OpAllGather} {
		for buf := int64(64 << 10); buf <= maxBuf; buf *= 8 {
			auto := sel(t, tp, op, buf)
			best := -1.0
			var bestTier ir.Protocol
			for _, proto := range []ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple} {
				c := run(t, compileNCCL(t, op, tp, proto), tp, buf).Completion
				if best < 0 || c < best {
					best, bestTier = c, proto
				}
			}
			if auto > best*tolerance {
				t.Errorf("%s %d bytes: auto tier %s runs %.6gs, forced %s runs %.6gs (>%gx worse)",
					op, buf, SelectProtocol(tp, op, buf), auto, bestTier, best, tolerance)
			}
		}
	}
}

// sel simulates the collective under the tier auto-selection picks.
func sel(t *testing.T, tp *topo.Topology, op ir.OpType, buf int64) float64 {
	t.Helper()
	plan := compileNCCL(t, op, tp, SelectProtocol(tp, op, buf))
	return run(t, plan, tp, buf).Completion
}

// Zero-byte transfers must terminate under every tier: the wire-byte
// inflation multiplies a zero remaining volume, and the evLatencyDone
// path must still drain every task.
func TestZeroByteTransfersTerminate(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	a, err := expert.RingAllGather(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range protoTiers {
		plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: a, Topo: tp, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 0, ChunkBytes: 1 << 20})
		if err != nil {
			t.Fatalf("%s: zero-byte run failed: %v", proto, err)
		}
		if res.Completion <= 0 {
			t.Errorf("%s: zero-byte run completed in %.6gs, want positive latency-only time", proto, res.Completion)
		}
	}
}

// A forced tier must actually change the simulated cost on the same
// kernel structure: LL buys latency on small buffers, Simple buys
// bandwidth on large ones, and LL128 sits strictly between Simple and
// LL on large buffers.
func TestProtocolTiersSeparate(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	small := func(proto ir.Protocol) float64 {
		return run(t, compileNCCL(t, ir.OpAllGather, tp, proto), tp, 128<<10).Completion
	}
	large := func(proto ir.Protocol) float64 {
		return run(t, compileNCCL(t, ir.OpAllGather, tp, proto), tp, 256<<20).Completion
	}
	if !(small(ir.ProtoLL) < small(ir.ProtoLL128) && small(ir.ProtoLL128) < small(ir.ProtoSimple)) {
		t.Error("small buffer: want LL < LL128 < Simple")
	}
	if !(large(ir.ProtoSimple) < large(ir.ProtoLL128) && large(ir.ProtoLL128) < large(ir.ProtoLL)) {
		t.Error("large buffer: want Simple < LL128 < LL")
	}
}
