package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// protoBufs is the crossover sweep: 64 KiB to 1 GiB in powers of two,
// straddling both switch points on the paper's 2×8 cluster.
var protoBufs = func() []int64 {
	var out []int64
	for b := int64(64 << 10); b <= 1<<30; b *= 2 {
		out = append(out, b)
	}
	return out
}()

// protoCollectives are the collectives the crossover experiment sweeps.
var protoCollectives = []struct {
	label string
	op    ir.OpType
}{
	{"AllReduce", ir.OpAllReduce},
	{"AllGather", ir.OpAllGather},
}

// ProtocolCrossover sweeps message sizes per collective on the NCCL
// baseline, simulating every forced protocol tier, and reports where
// the auto-selected tier switches LL → LL128 → Simple. The first table
// is the per-size completion comparison (the crossover "plot"); the
// second is the switch-point summary per collective, checked against
// the simulated best tier at each size.
func ProtocolCrossover(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.A100())
	bufs := protoBufs
	if opts.Quick {
		// Keep one representative size per tier regime plus the
		// boundaries around each switch point.
		bufs = []int64{256 << 10, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 256 << 20}
	}

	sweep := &Table{
		ID:     "protocol-crossover",
		Title:  "NCCL protocol tiers on 2×8 A100: simulated completion per forced tier",
		Header: []string{"Collective", "Buffer", "LL (µs)", "LL128 (µs)", "Simple (µs)", "Auto", "Sim best"},
		Notes: []string{
			"auto is the tuning-table tier (sim.SelectProtocol); sim best is argmin of the three forced runs",
		},
	}

	type cellOut struct {
		t    [3]float64 // seconds, indexed by tier order below
		auto ir.Protocol
	}
	tiers := []ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple}
	cells := make([]cellOut, len(protoCollectives)*len(bufs))
	// The auto tier is analytic and shared by a size's three forced
	// cells, so it is resolved up front rather than raced in the pool.
	for ci := range cells {
		coll := protoCollectives[ci/len(bufs)]
		cells[ci].auto = sim.SelectProtocol(tp, coll.op, bufs[ci%len(bufs)])
	}
	nccl := backend.NewNCCL()
	err := runCells(opts, len(cells)*len(tiers), func(c int) error {
		ci, ti := c/len(tiers), c%len(tiers)
		coll := protoCollectives[ci/len(bufs)]
		buf := bufs[ci%len(bufs)]
		algo := ncclRequestAlgo(coll.op, tp.NRanks())
		plan, err := compile(opts, nccl, backend.Request{Algo: algo, Topo: tp, Protocol: tiers[ti]})
		if err != nil {
			return fmt.Errorf("%s %s %s: %w", coll.label, mbLabel(buf), tiers[ti], err)
		}
		res, err := runPlan(opts, tp, plan, buf, simcost.DefaultChunkBytes)
		if err != nil {
			return fmt.Errorf("%s %s %s: %w", coll.label, mbLabel(buf), tiers[ti], err)
		}
		cells[ci].t[ti] = res.Completion
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, cell := range cells {
		coll := protoCollectives[ci/len(bufs)]
		buf := bufs[ci%len(bufs)]
		best := 0
		for ti := range tiers {
			if cell.t[ti] < cell.t[best] {
				best = ti
			}
		}
		sweep.AddRow(coll.label, mbLabel(buf),
			us(cell.t[0]), us(cell.t[1]), us(cell.t[2]),
			cell.auto.String(), tiers[best].String())
	}

	points := &Table{
		ID:     "protocol-crossover",
		Title:  "Protocol switch points on 2×8 A100 (largest size per tier)",
		Header: []string{"Collective", "LL ≤", "LL128 ≤", "Simple >"},
		Notes: []string{
			"thresholds from sim.ProtocolSwitchPoints; monotone LL → LL128 → Simple by construction",
		},
	}
	for _, coll := range protoCollectives {
		llMax, ll128Max := sim.ProtocolSwitchPoints(tp, coll.op)
		points.AddRow(coll.label, mbLabel(llMax), mbLabel(ll128Max), mbLabel(ll128Max))
	}
	return []*Table{sweep, points}, nil
}

// ProtocolSwitchPointRecords returns the crossover experiment's
// thresholds in machine-readable form for -bench-json perf records,
// computed on the same 2×8 A100 cluster the experiment sweeps.
func ProtocolSwitchPointRecords() []SwitchPoint {
	tp := topo.New(2, 8, topo.A100())
	out := make([]SwitchPoint, 0, len(protoCollectives))
	for _, coll := range protoCollectives {
		llMax, ll128Max := sim.ProtocolSwitchPoints(tp, coll.op)
		out = append(out, SwitchPoint{Collective: coll.label, LLMaxBytes: llMax, LL128MaxBytes: ll128Max})
	}
	return out
}

// ncclRequestAlgo builds the minimal request algorithm for the NCCL
// backend, which honours only Op and NRanks and substitutes its own
// channelized rings.
func ncclRequestAlgo(op ir.OpType, nRanks int) *ir.Algorithm {
	return &ir.Algorithm{
		Name:    "nccl-" + op.String(),
		Op:      op,
		NRanks:  nRanks,
		NChunks: nRanks,
	}
}

// us formats seconds as microseconds.
func us(s float64) string { return fmt.Sprintf("%.1f", s*1e6) }
