package tune

import (
	"context"
	"fmt"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/synth/search"
	"github.com/resccl/resccl/internal/topo"
)

// Options configure a tuning sweep. The zero value sweeps AllReduce and
// AllGather over the default size grid under every concrete protocol
// tier, serially, with seed 1.
type Options struct {
	// Ops are the collectives to tune (default AllReduce, AllGather),
	// each listed once.
	Ops []ir.OpType
	// Sizes is the message-size grid (default 64 KiB → 1 GiB in ×4
	// steps; Quick shrinks it to three points): positive and strictly
	// ascending.
	Sizes []int64
	// Protocols are the tiers swept per point (default LL, LL128,
	// Simple): concrete, distinct, and at least one covering each size.
	Protocols []ir.Protocol
	// Seed drives the synthesizer's search (default 1). Identical
	// options and seed yield a byte-identical table.
	Seed int64
	// Beam and Rounds bound the synthesizer's search effort (defaults
	// 4 and 2; Quick uses 3 and 1 unless set explicitly).
	Beam, Rounds int
	// Quick shrinks the grid and search effort for smoke runs.
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
	// ChunkBytes is the simulated transfer chunk size (default 1 MiB).
	ChunkBytes int64
	// Metrics, when non-nil, receives the sweep's plan-cache and
	// simulator counters.
	Metrics *obs.Metrics
	// Budget is the resource envelope candidates must fit before they
	// are measured at all: any candidate whose compiled plan trips a
	// cert.BudgetLints violation (peak thread blocks per rank, buffer
	// high-water mark) is pruned from the sweep and recorded in
	// Result.Pruned. Nil applies cert.DefaultBudget.
	Budget *cert.Budget
}

// DefaultSizes is the full sweep grid: 64 KiB to 1 GiB in ×4 steps,
// straddling the paper's small-buffer crossover region.
func DefaultSizes() []int64 {
	return []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30}
}

// QuickSizes is the smoke-run grid.
func QuickSizes() []int64 { return []int64{256 << 10, 4 << 20, 64 << 20} }

func (o Options) withDefaults() Options {
	if len(o.Ops) == 0 {
		o.Ops = []ir.OpType{ir.OpAllReduce, ir.OpAllGather}
	}
	if len(o.Sizes) == 0 {
		if o.Quick {
			o.Sizes = QuickSizes()
		} else {
			o.Sizes = DefaultSizes()
		}
	}
	if len(o.Protocols) == 0 {
		o.Protocols = []ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Beam <= 0 {
		if o.Quick {
			o.Beam = 3
		} else {
			o.Beam = 4
		}
	}
	if o.Rounds <= 0 {
		if o.Quick {
			o.Rounds = 1
		} else {
			o.Rounds = 2
		}
	}
	if o.Cache == nil {
		o.Cache = backend.NewCache()
	}
	return o
}

// validate rejects a grid the sweep cannot turn into a table, before
// anything is compiled or simulated.
func (o Options) validate() error {
	ops := map[ir.OpType]bool{}
	for _, op := range o.Ops {
		if ops[op] {
			return fmt.Errorf("tune: Ops lists %v twice", op)
		}
		ops[op] = true
	}
	for i, size := range o.Sizes {
		if size <= 0 {
			return fmt.Errorf("tune: Sizes[%d] is %d bytes; sizes must be positive", i, size)
		}
		if i > 0 && size <= o.Sizes[i-1] {
			return fmt.Errorf("tune: Sizes must ascend strictly, but Sizes[%d] = %d follows %d", i, size, o.Sizes[i-1])
		}
	}
	protos := map[ir.Protocol]bool{}
	for i, p := range o.Protocols {
		if !p.Forced() {
			return fmt.Errorf("tune: Protocols[%d] is %v; the sweep measures concrete tiers only", i, p)
		}
		if protos[p] {
			return fmt.Errorf("tune: Protocols lists %v twice", p)
		}
		protos[p] = true
	}
	for i, size := range o.Sizes {
		covered := false
		for _, p := range o.Protocols {
			covered = covered || TierCovers(p, size)
		}
		if !covered {
			return fmt.Errorf("tune: no protocol tier in Protocols covers %d bytes (Sizes[%d])", size, i)
		}
	}
	return nil
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
	if err := opts.validate(); err != nil {
		return nil, err
	}
	req := exec.Request{Backend: backend.NewResCCL(), Cache: opts.Cache, Topo: tp, ChunkBytes: opts.ChunkBytes, Metrics: opts.Metrics}
	budget := cert.DefaultBudget()
	if opts.Budget != nil {
		budget = *opts.Budget
	}

	type opPlan struct {
		op    ir.OpType
		cands []Candidate
	}
	res := &Result{}
	plans := make([]opPlan, 0, len(opts.Ops))
	// The budget pre-check compiles each candidate under the sweep's
	// highest tier — the last listed protocol, Simple by default — which
	// the measurement pass compiles anyway, so the shared cache keeps
	// miss counts identical to an unpruned sweep.
	pruneProto := opts.Protocols[len(opts.Protocols)-1]
	for _, op := range opts.Ops {
		cands, err := candidates(ctx, tp, op, opts)
		if err != nil {
			return nil, err
		}
		kept := cands[:0]
		for _, cand := range cands {
			o, err := exec.Compile(ctx, req, exec.Call{Algo: cand.Algo, Protocol: pruneProto})
			if err != nil {
				return nil, fmt.Errorf("tune: budget pre-check %s/%v: %w", cand.Name, pruneProto, err)
			}
			lints := cert.BudgetLints(o.Plan.Kernel, tp, cert.Options{
				ChunkBytes: opts.ChunkBytes, Budget: budget,
			})
			pruned := false
			for _, d := range lints {
				if cert.IsBudgetDiag(d.Code) {
					res.Pruned = append(res.Pruned, Pruned{
						Op: op, Name: cand.Name,
						Reason: d.Code + ": " + d.Message,
					})
					pruned = true
					break
				}
			}
			if !pruned {
				kept = append(kept, cand)
			}
		}
		if len(kept) == 0 {
			if len(cands) > 0 {
				return nil, fmt.Errorf("tune: every candidate algorithm for %v on %s violates the resource budget (%d pruned)", op, tp, len(cands))
			}
			return nil, fmt.Errorf("tune: no candidate algorithm for %v on %s", op, tp)
		}
		plans = append(plans, opPlan{op: op, cands: kept})
	}

	// Flatten the grid into independent cells with pre-indexed slots so
	// a parallel run assembles identical output. Each (op, size) block
	// records its cell range for pruning and winner extraction.
	type block struct {
		size     int64
		start, n int
	}
	var cells []Cell
	blocks := make([][]block, len(plans))
	for pi, p := range plans {
		for _, size := range opts.Sizes {
			b := block{size: size, start: len(cells)}
			for _, cand := range p.cands {
				for _, proto := range opts.Protocols {
					if TierCovers(proto, size) {
						cells = append(cells, Cell{Op: p.op, Bytes: size, Candidate: cand, Protocol: proto})
					}
				}
			}
			b.n = len(cells) - b.start
			blocks[pi] = append(blocks[pi], b)
		}
	}

	// Compile every cell's plan — a cache hit for all but the first size
	// of each (candidate, tier) — and bound its completion from below.
	workers := exec.Workers(opts.Parallel, opts.Workers)
	outs := make([]exec.Outcome, len(cells))
	lbs := make([]float64, len(cells))
	err := exec.Cells(ctx, workers, len(cells), func(i int) error {
		c := &cells[i]
		o, err := exec.Compile(ctx, req, exec.Call{Algo: c.Candidate.Algo, BufferBytes: c.Bytes, Protocol: c.Protocol})
		if err != nil {
			return fmt.Errorf("tune: compile %s/%v: %w", c.Candidate.Name, c.Protocol, err)
		}
		outs[i] = o
		lbs[i], _, _ = cert.LowerBound(o.Plan.Kernel, tp, c.Bytes, opts.ChunkBytes)
		return nil
	})
	if err != nil {
		return nil, err
	}
	measured := make([]bool, len(cells))
	simulate := func(idx []int) error {
		return exec.Cells(ctx, workers, len(idx), func(j int) error {
			i := idx[j]
			c := &cells[i]
			call := []exec.Call{{Algo: c.Candidate.Algo, BufferBytes: c.Bytes, Protocol: c.Protocol}}
			out := []exec.Outcome{outs[i]}
			if err := exec.Simulate(req, call, out); err != nil {
				return fmt.Errorf("tune: measure %s/%v at %d: %w", c.Candidate.Name, c.Protocol, c.Bytes, err)
			}
			c.Completion = out[0].Result.Completion
			if cert.BelowBound(c.Completion, lbs[i]) {
				return fmt.Errorf("tune: unsound lower bound for %s/%v at %d: simulated %g s is below the bound %g s",
					c.Candidate.Name, c.Protocol, c.Bytes, c.Completion, lbs[i])
			}
			measured[i] = true
			return nil
		})
	}

	// Prune in two waves. Wave 1 simulates, per block and per kind
	// (registered or synthesized), the cell with the lowest bound. Wave
	// 2 simulates the cells whose bound is not above their kind's wave-1
	// completion. A skipped cell would complete strictly later than a
	// measured cell of its kind, so it can neither win nor tie its
	// block, and each kind's best cell is still measured.
	kind := func(i int) int {
		if cells[i].Candidate.Synth {
			return 1
		}
		return 0
	}
	var wave1 []int
	for _, bs := range blocks {
		for _, b := range bs {
			first := [2]int{-1, -1}
			for i := b.start; i < b.start+b.n; i++ {
				if k := kind(i); first[k] < 0 || lbs[i] < lbs[first[k]] {
					first[k] = i
				}
			}
			for _, i := range first {
				if i >= 0 {
					wave1 = append(wave1, i)
				}
			}
		}
	}
	if err := simulate(wave1); err != nil {
		return nil, err
	}
	var wave2 []int
	for _, bs := range blocks {
		for _, b := range bs {
			var best [2]float64
			for i := b.start; i < b.start+b.n; i++ {
				if measured[i] {
					best[kind(i)] = cells[i].Completion
				}
			}
			for i := b.start; i < b.start+b.n; i++ {
				if !measured[i] && !cert.BelowBound(best[kind(i)], lbs[i]) {
					wave2 = append(wave2, i)
				}
			}
		}
	}
	if err := simulate(wave2); err != nil {
		return nil, err
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
			crt, err := cert.FromCompletion(o.Plan.Kernel, tp, cert.Options{
				BufferBytes: b.size, ChunkBytes: opts.ChunkBytes, Budget: budget,
			}, best.Completion)
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
	// Grids grow in ×4 steps, so the exact midpoint is a*2; fall back to
	// the average for irregular grids.
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
		params := []int{tp.NRanks()}
		if b.NParams == 2 {
			params = []int{tp.NNodes, tp.GPUsPerNode}
		}
		algo, err := b.Build(params...)
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
	anchors := []int64{opts.Sizes[0]}
	if n := len(opts.Sizes); n > 1 {
		anchors = append(anchors, opts.Sizes[n/2], opts.Sizes[n-1])
	}
	beams, err := search.Search(ctx, tp, op, anchors, search.SearchOptions{
		Seed:       opts.Seed,
		Beam:       opts.Beam,
		Rounds:     opts.Rounds,
		ChunkBytes: opts.ChunkBytes,
		Workers:    exec.Workers(opts.Parallel, opts.Workers),
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
