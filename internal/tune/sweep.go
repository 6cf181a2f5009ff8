package tune

import (
	"context"
	"fmt"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/synth/search"
	"github.com/resccl/resccl/internal/topo"
)

// Options configure a tuning sweep. The zero value runs the full grid
// serially with seed 1.
type Options struct {
	// Seed drives the synthesizer's search (default 1). Identical
	// options and seed yield a byte-identical table.
	Seed int64
	// Quick shrinks the size grid to QuickSizes and the synthesizer's
	// search effort (beam 3, one round instead of beam 4, two rounds)
	// for smoke runs.
	Quick bool
	// Parallel fans independent (candidate, size, tier) cells, and the
	// sketch search's gates and simulations, across a worker pool
	// (exec.Cells); results are byte-identical to a serial run.
	Parallel bool
	// Workers caps the pool; 0 means GOMAXPROCS.
	Workers int
	// Cache is the plan-compile cache to route compilations through;
	// nil creates a private one.
	Cache *backend.Cache
	// Metrics, when non-nil, receives the sweep's plan-cache and
	// simulator counters.
	Metrics *obs.Metrics
}

// The sweep's grid: the collectives it tunes and the protocol tiers it
// measures at each size, lowest first. Simple, the last, covers every
// size (TierCovers).
var (
	sweepOps   = [...]ir.OpType{ir.OpAllReduce, ir.OpAllGather}
	sweepTiers = [...]ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple}
)

// DefaultSizes is the full sweep grid: 64 KiB to 1 GiB in ×4 steps,
// straddling the paper's small-buffer crossover region.
func DefaultSizes() []int64 {
	return []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}
}

// QuickSizes is the smoke-run grid.
func QuickSizes() []int64 { return []int64{256 << 10, 4 << 20, 64 << 20} }

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cache == nil {
		o.Cache = backend.NewCache()
	}
	return o
}

// sizes is the sweep's message-size grid.
func (o Options) sizes() []int64 {
	if o.Quick {
		return QuickSizes()
	}
	return DefaultSizes()
}

// Candidate is one algorithm the sweep measured.
type Candidate struct {
	// Name rebuilds the plan: an expert-registry key or an encoded
	// sketch genome.
	Name string
	Algo *ir.Algorithm
	// Synth marks search-synthesized candidates (as opposed to
	// registered expert/heuristic builders).
	Synth bool
}

// Cell is one measured sweep point.
type Cell struct {
	Op        ir.OpType
	Bytes     int64
	Candidate Candidate
	Protocol  ir.Protocol
	// Completion is the simulated wall time in seconds.
	Completion float64
}

// Pruned records one candidate the sweep refused to measure: its
// compiled plan violates the resource budget, so it can never be
// dispatched no matter how fast it simulates.
type Pruned struct {
	Op   ir.OpType
	Name string
	// Reason is the first budget lint that fired (code: message).
	Reason string
}

// Result carries the emitted dispatch table plus every measured cell
// for reporting (the bench experiment's comparison tables).
type Result struct {
	Table *Table
	// Cells are the simulated cells, in grid order. The sweep skips a
	// cell whose lower bound proves it slower than a cell of its kind
	// (registered or synthesized) already simulated at its point, so
	// each kind's best cell at every point is here.
	Cells []Cell
	// Grid is how many (op, size, candidate, tier) cells the grid has,
	// simulated or skipped.
	Grid int
	// Certs are the winners' resource-efficiency certificates, aligned
	// index-for-index with Table.Entries. Each entry's GapPct/CertHash
	// are drawn from the corresponding certificate.
	Certs []*cert.Certificate
	// Pruned lists candidates dropped by the budget pre-check before
	// measurement.
	Pruned []Pruned
}

// Sweep tunes tp: it gathers candidates (every compatible registered
// algorithm plus the sketch search's verified winners), prunes any
// whose compiled plan violates the resource budget, compiles every
// surviving (op, size, candidate, tier) cell through the plan cache,
// simulates each cell its certified lower bound does not rule out, and
// emits the dispatch table of per-bucket winners, each carrying its
// resource-efficiency certificate. Because the bound is sound, the
// table is the one simulating every cell would give; a simulated
// completion below its bound fails the sweep. Everything is
// deterministic: same topology, options and seed produce a
// byte-identical table and identical cells. ctx cancels the sweep at
// compile boundaries and between the search's and the grid's cells; nil
// never cancels.
func Sweep(ctx context.Context, tp *topo.Topology, opts Options) (*Result, error) {
	if tp == nil {
		return nil, fmt.Errorf("tune: sweep needs a topology")
	}
	opts = opts.withDefaults()
	req := exec.Request{Backend: backend.NewResCCL(), Cache: opts.Cache, Topo: tp, Metrics: opts.Metrics}

	type opPlan struct {
		op    ir.OpType
		cands []Candidate
	}
	res := &Result{}
	plans := make([]opPlan, 0, len(sweepOps))
	for _, op := range sweepOps {
		cands, err := candidates(ctx, tp, op, opts)
		if err != nil {
			return nil, err
		}
		kept, pruned, err := fitBudget(ctx, req, op, cands, analyze.Budget{})
		if err != nil {
			return nil, err
		}
		res.Pruned = append(res.Pruned, pruned...)
		if len(kept) == 0 {
			if len(pruned) > 0 {
				return nil, fmt.Errorf("tune: every candidate algorithm for %v on %s violates the resource budget (%d pruned)", op, tp, len(pruned))
			}
			return nil, fmt.Errorf("tune: no candidate algorithm for %v on %s", op, tp)
		}
		plans = append(plans, opPlan{op: op, cands: kept})
	}

	// Flatten the grid into independent cells with pre-indexed slots so
	// a parallel run assembles identical output. Each (op, size) block
	// records its cell range for winner extraction, and each of its
	// kinds (registered or synthesized) is one pruning group.
	type block struct {
		size     int64
		start, n int
	}
	var cells []Cell
	var bounded []exec.Bounded
	blocks := make([][]block, len(plans))
	nBlocks := 0
	for pi, p := range plans {
		// Candidates with equal content under different names (the
		// sketch's inter-node routes on two nodes, say) share one
		// simulation per cell.
		contents := make([][32]byte, len(p.cands))
		for ci, cand := range p.cands {
			contents[ci] = backend.Content(cand.Algo)
		}
		for _, size := range opts.sizes() {
			b := block{size: size, start: len(cells)}
			for ci, cand := range p.cands {
				group := 2 * nBlocks
				if cand.Synth {
					group++
				}
				for _, proto := range sweepTiers {
					if TierCovers(proto, size) {
						cells = append(cells, Cell{Op: p.op, Bytes: size, Candidate: cand, Protocol: proto})
						bounded = append(bounded, exec.Bounded{
							Group: group,
							Plan:  exec.PlanID{Algo: contents[ci], Protocol: proto, Bytes: size},
							Name:  fmt.Sprintf("%s/%v at %d", cand.Name, proto, size),
						})
					}
				}
			}
			b.n = len(cells) - b.start
			blocks[pi] = append(blocks[pi], b)
			nBlocks++
		}
	}

	// Compile every cell's plan — a cache hit for all but the first size
	// of each (candidate, tier) — and bound its completion from below.
	workers := exec.Workers(opts.Parallel, opts.Workers)
	outs := make([]exec.Outcome, len(cells))
	err := exec.Cells(ctx, workers, len(cells), func(i int) error {
		c := &cells[i]
		o, err := exec.Compile(ctx, req, exec.Call{Algo: c.Candidate.Algo, BufferBytes: c.Bytes, Protocol: c.Protocol})
		if err != nil {
			return fmt.Errorf("tune: compile %s/%v: %w", c.Candidate.Name, c.Protocol, err)
		}
		outs[i] = o
		bounded[i].Bound, _, _ = cert.LowerBound(o.Plan.Kernel, tp, c.Bytes, simcost.DefaultChunkBytes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Simulate each kind's best cell at every point, and every cell its
	// bound does not prove slower than that (exec.Prune with k = 1): a
	// skipped cell can neither win nor tie its block.
	measured, completions, err := exec.Prune(ctx, workers, 1, bounded, nil, nil, func(i int) (float64, error) {
		c := &cells[i]
		call := []exec.Call{{Algo: c.Candidate.Algo, BufferBytes: c.Bytes, Protocol: c.Protocol}}
		out := []exec.Outcome{outs[i]}
		if err := exec.Simulate(req, call, out); err != nil {
			return 0, fmt.Errorf("tune: measure %s: %w", bounded[i].Name, err)
		}
		return out[0].Result.Completion, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Completion = completions[i]
	}

	table := &Table{Version: Version, Topology: tp.String(), Seed: opts.Seed}
	for pi := range plans {
		for si, b := range blocks[pi] {
			w := -1
			for i := b.start; i < b.start+b.n; i++ {
				if measured[i] && (w < 0 || better(cells[i], cells[w])) {
					w = i
				}
			}
			best := cells[w]
			entry := Entry{
				Op:           best.Op.String(),
				Algorithm:    best.Candidate.Name,
				Protocol:     best.Protocol.String(),
				ProbeBytes:   b.size,
				CompletionUS: best.Completion * 1e6,
			}
			if si < len(blocks[pi])-1 {
				entry.MaxBytes = geomMid(b.size, blocks[pi][si+1].size)
			}
			// Certify the winner at its probe point: the completion was
			// just measured, so certification is a pure recomputation —
			// no extra simulation, and the winner's plan is a cache hit.
			o, err := exec.Compile(ctx, req, exec.Call{Algo: best.Candidate.Algo, Protocol: best.Protocol})
			if err != nil {
				return nil, fmt.Errorf("tune: certify %s/%v: %w", best.Candidate.Name, best.Protocol, err)
			}
			crt, err := cert.FromCompletion(o.Plan.Kernel, tp, cert.Options{BufferBytes: b.size}, best.Completion)
			if err != nil {
				return nil, fmt.Errorf("tune: certify %s/%v at %d: %w", best.Candidate.Name, best.Protocol, b.size, err)
			}
			entry.GapPct = crt.GapPct
			entry.CertHash = crt.Hash
			res.Certs = append(res.Certs, crt)
			table.Entries = append(table.Entries, entry)
		}
	}
	if err := table.Validate(); err != nil {
		return nil, fmt.Errorf("tune: emitted an invalid table: %w", err)
	}
	table.hash = table.digest()
	res.Table, res.Grid = table, len(cells)
	for i, c := range cells {
		if measured[i] {
			res.Cells = append(res.Cells, c)
		}
	}
	return res, nil
}

// fitBudget is the sweep's budget pre-check. It compiles each of op's
// candidates under Simple, the sweep's highest tier, which the
// measurement pass compiles anyway, so the shared cache keeps miss
// counts identical to an unpruned sweep. A candidate whose plan trips a
// budget lint is pruned, with the first lint as its reason; the rest
// are kept, filtered in place in cands.
func fitBudget(ctx context.Context, req exec.Request, op ir.OpType, cands []Candidate, budget analyze.Budget) (kept []Candidate, pruned []Pruned, err error) {
	kept = cands[:0]
	for _, cand := range cands {
		o, err := exec.Compile(ctx, req, exec.Call{Algo: cand.Algo, Protocol: ir.ProtoSimple})
		if err != nil {
			return nil, nil, fmt.Errorf("tune: budget pre-check %s/%v: %w", cand.Name, ir.ProtoSimple, err)
		}
		if lints := cert.BudgetLints(o.Plan.Kernel, req.Topo, cert.Options{Budget: budget}); len(lints) > 0 {
			pruned = append(pruned, Pruned{Op: op, Name: cand.Name, Reason: lints[0].Code + ": " + lints[0].Message})
		} else {
			kept = append(kept, cand)
		}
	}
	return kept, pruned, nil
}

// TierCovers reports whether the sweep measures tier p at size bytes:
// it bounds each tier's swept size range. LL's 64 KiB and
// LL128's 256 KiB chunk caps make them strictly worse — and very
// expensive to simulate — far above their crossover points (4 MiB and
// 16 MiB on the reference fabric), so the sweep stops considering them
// a comfortable margin beyond: real NCCL's tuning tables bound the
// low-latency protocols to small messages the same way.
func TierCovers(p ir.Protocol, size int64) bool {
	switch p {
	case ir.ProtoLL:
		return size <= 32<<20
	case ir.ProtoLL128:
		return size <= 512<<20
	default:
		return true
	}
}

// better orders cells within one (op, size) block: lowest completion
// wins, ties resolve by candidate name then tier so the winner is
// deterministic.
func better(a, b Cell) bool {
	if a.Completion != b.Completion {
		return a.Completion < b.Completion
	}
	if a.Candidate.Name != b.Candidate.Name {
		return a.Candidate.Name < b.Candidate.Name
	}
	return a.Protocol < b.Protocol
}

// geomMid returns the geometric midpoint of two grid sizes — the bucket
// boundary between adjacent probes.
func geomMid(a, b int64) int64 {
	// The full grid grows in ×4 steps, where the exact midpoint is a*2;
	// the Quick grid's ×16 steps take the average.
	if b/a == 4 && a*4 == b {
		return a * 2
	}
	return (a + b) / 2
}

// candidates gathers every algorithm the sweep will measure for op:
// compatible registered builders first (sorted by name), then the
// sketch search's verified winners at the grid's anchor sizes.
func candidates(ctx context.Context, tp *topo.Topology, op ir.OpType, opts Options) ([]Candidate, error) {
	var out []Candidate
	seen := map[string]bool{}
	for _, b := range expert.Registry() {
		if b.Op != op {
			continue
		}
		algo, err := expert.BuildOn(b.Name, tp.NNodes, tp.GPUsPerNode)
		if err != nil {
			continue // builder rejects the shape
		}
		out = append(out, Candidate{Name: b.Name, Algo: algo})
		seen[b.Name] = true
	}
	// The sketch family does not cover every operator or shape; sweeps
	// over uncovered ones measure registered candidates only.
	if !synth.SketchCovers(op) || tp.NRanks() < 2 {
		return out, nil
	}
	// Anchor the search at the grid's extremes and middle: the
	// latency-bound, crossover and bandwidth-bound regimes.
	sizes := opts.sizes()
	anchors := []int64{sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]}
	beam, rounds := 4, 2
	if opts.Quick {
		beam, rounds = 3, 1
	}
	beams, err := search.Search(ctx, tp, op, anchors, search.SearchOptions{
		Seed:    opts.Seed,
		Beam:    beam,
		Rounds:  rounds,
		Workers: exec.Workers(opts.Parallel, opts.Workers),
		Metrics: opts.Metrics,
	})
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("tune: sketch search for %v: %w", op, err)
	}
	for _, cands := range beams {
		for _, c := range cands {
			if seen[c.Algo.Name] {
				continue
			}
			seen[c.Algo.Name] = true
			out = append(out, Candidate{Name: c.Algo.Name, Algo: c.Algo, Synth: true})
		}
	}
	return out, nil
}
