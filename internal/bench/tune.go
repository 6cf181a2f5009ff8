package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/tune"
)

// TuneDispatch runs the autotuning sweep on the reference 2×8 A100
// fabric and renders two artifacts: the emitted dispatch table, and a
// per-size comparison of the best synthesized plan against the best
// registered (expert/heuristic) algorithm and the NCCL-backend
// baseline. It also asserts the dispatch invariant — every table entry
// is the argmin of its probe point's measured cells.
func TuneDispatch(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.A100())
	topts := tune.Options{
		Quick:    opts.Quick,
		Parallel: opts.Parallel,
		Workers:  opts.Workers,
		Cache:    opts.Cache,
		Metrics:  opts.Metrics,
	}
	// Experiment entry points share the registry's Run(Options) shape;
	// the caller's context rides in Options rather than a parameter.
	res, err := tune.Sweep(opts.ctx(), tp, topts) //resccl:allow ctxflow
	if err != nil {
		return nil, err
	}

	dispatch := &Table{
		ID:     "tune",
		Title:  "Autotuned dispatch table (2×8 A100, seed 1)",
		Header: []string{"op", "bucket ≤", "algorithm", "protocol", "probe", "completion (µs)", "gap %"},
	}
	for _, e := range res.Table.Entries {
		bucket := "∞"
		if e.MaxBytes > 0 {
			bucket = mbLabel(e.MaxBytes)
		}
		dispatch.AddRow(e.Op, bucket, e.Algorithm, e.Protocol,
			mbLabel(e.ProbeBytes), fmt.Sprintf("%.1f", e.CompletionUS),
			fmt.Sprintf("%.2f", e.GapPct))
	}
	dispatch.Notes = append(dispatch.Notes,
		fmt.Sprintf("table hash %s…; same topology and seed regenerate identical bytes", res.Table.Hash()[:12]),
		fmt.Sprintf("gap %% is each winner's certified distance from its α–β lower bound; %d candidates pruned by the resource budget", len(res.Pruned)))

	cmp, err := tuneComparison(opts, tp, res)
	if err != nil {
		return nil, err
	}
	return []*Table{dispatch, cmp}, nil
}

// tuneComparison builds the synthesized-vs-heuristic-vs-NCCL table and
// checks the dispatch argmin invariant.
func tuneComparison(opts Options, tp *topo.Topology, res *tune.Result) (*Table, error) {
	type key struct {
		op    ir.OpType
		bytes int64
	}
	type best struct {
		name       string
		completion float64
	}
	bestSynth := map[key]best{}
	bestReg := map[key]best{}
	bestAll := map[key]best{}
	regAlgo := map[ir.OpType]*ir.Algorithm{}
	var points []key
	for _, c := range res.Cells {
		k := key{c.Op, c.Bytes}
		if _, seen := bestAll[k]; !seen {
			points = append(points, k)
		}
		m := bestReg
		if c.Candidate.Synth {
			m = bestSynth
		}
		if b, ok := m[k]; !ok || c.Completion < b.completion {
			m[k] = best{c.Candidate.Name, c.Completion}
		}
		if b, ok := bestAll[k]; !ok || c.Completion < b.completion {
			bestAll[k] = best{c.Candidate.Name, c.Completion}
		}
		if !c.Candidate.Synth && regAlgo[c.Op] == nil {
			regAlgo[c.Op] = c.Candidate.Algo
		}
	}

	// NCCL baseline: the vendor-library emulation runs its own standard
	// algorithm for the operator at the tier its size-based tuning table
	// would pick; the request's Algo only conveys Op and NRanks.
	nccl := backend.NewNCCL()
	baseline := make([]float64, len(points))
	err := runCells(opts, len(points), func(i int) error {
		k := points[i]
		algo := regAlgo[k.op]
		if algo == nil {
			return fmt.Errorf("bench: no registered candidate for %v", k.op)
		}
		plan, err := compile(opts, nccl, backend.Request{
			Algo: algo, Topo: tp, Protocol: sim.SelectProtocol(tp, k.op, k.bytes),
		})
		if err != nil {
			return fmt.Errorf("bench: NCCL baseline %v: %w", k.op, err)
		}
		r, err := runPlan(opts, tp, plan, k.bytes, simcost.DefaultChunkBytes)
		if err != nil {
			return fmt.Errorf("bench: NCCL baseline %v at %d: %w", k.op, k.bytes, err)
		}
		baseline[i] = r.Completion
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "tune",
		Title:  "Synthesized vs heuristic vs NCCL baseline per size bucket (completion µs)",
		Header: []string{"op", "size", "best synthesized", "best heuristic", "NCCL", "dispatch pick", "vs NCCL"},
	}
	synthWins := 0
	for i, k := range points {
		e, ok := res.Table.Lookup(k.op, k.bytes)
		if !ok {
			return nil, fmt.Errorf("bench: dispatch table has no bucket for %v", k.op)
		}
		all := bestAll[k]
		// The dispatch invariant: the probe point's entry is its argmin.
		if e.ProbeBytes == k.bytes && all.completion*1e6 != e.CompletionUS {
			return nil, fmt.Errorf("bench: dispatch for %v at %d is not the argmin: entry %.3fµs, best cell %.3fµs",
				k.op, k.bytes, e.CompletionUS, all.completion*1e6)
		}
		sv, hv := "—", "—"
		if b, ok := bestSynth[k]; ok {
			sv = fmt.Sprintf("%.1f (%s)", b.completion*1e6, b.name)
			if reg, ok := bestReg[k]; ok && b.completion < reg.completion {
				synthWins++
			}
		}
		if b, ok := bestReg[k]; ok {
			hv = fmt.Sprintf("%.1f (%s)", b.completion*1e6, b.name)
		}
		t.AddRow(k.op.String(), mbLabel(k.bytes), sv, hv,
			fmt.Sprintf("%.1f", baseline[i]*1e6),
			fmt.Sprintf("%s/%s", all.name, protoOf(res, k)),
			fmt.Sprintf("%.2f×", baseline[i]/all.completion))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("synthesized plans win %d of %d swept points outright; dispatch always picks the measured argmin", synthWins, len(points)))
	return t, nil
}

// protoOf returns the protocol of the winning cell at a grid point.
func protoOf(res *tune.Result, k struct {
	op    ir.OpType
	bytes int64
}) string {
	var name, proto string
	bestC := -1.0
	for _, c := range res.Cells {
		if c.Op != k.op || c.Bytes != k.bytes {
			continue
		}
		if bestC < 0 || c.Completion < bestC || (c.Completion == bestC && c.Candidate.Name < name) {
			bestC, name, proto = c.Completion, c.Candidate.Name, c.Protocol.String()
		}
	}
	return proto
}
