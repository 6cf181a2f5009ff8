package tune

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/synth/search"
	"github.com/resccl/resccl/internal/topo"
)

// Options configure a tuning sweep. The zero value sweeps AllReduce and
// AllGather over the default size grid under every concrete protocol
// tier, serially, with seed 1.
type Options struct {
	// Ops are the collectives to tune (default AllReduce, AllGather).
	Ops []ir.OpType
	// Sizes is the message-size grid (default 64 KiB → 1 GiB in ×4
	// steps; Quick shrinks it to three points).
	Sizes []int64
	// Protocols are the tiers swept per point (default LL, LL128,
	// Simple).
	Protocols []ir.Protocol
	// Seed drives the synthesizer's search (default 1). Identical
	// options and seed yield a byte-identical table.
	Seed int64
	// Beam and Rounds bound the synthesizer's search effort (defaults
	// 4 and 2; Quick uses 3 and 1 unless set explicitly).
	Beam, Rounds int
	// Quick shrinks the grid and search effort for smoke runs.
	Quick bool
	// Parallel fans independent (candidate, size, tier) cells across a
	// worker pool; results are byte-identical to a serial run.
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
	Cells []Cell
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
// whose compiled plan violates the resource budget, measures every
// surviving (op, size, candidate, tier) cell through the plan cache
// and the simulator, and emits the dispatch table of per-bucket
// winners, each carrying its resource-efficiency certificate.
// Everything is deterministic: same topology, options and seed produce
// a byte-identical table and identical cells. ctx cancels the sweep at
// compile boundaries; nil never cancels.
func Sweep(ctx context.Context, tp *topo.Topology, opts Options) (*Result, error) {
	if tp == nil {
		return nil, fmt.Errorf("tune: sweep needs a topology")
	}
	opts = opts.withDefaults()
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
		cands, err := candidates(tp, op, opts)
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
	// records its cell range for winner extraction.
	type block struct {
		size     int64
		start, n int
	}
	var cells []Cell
	blocks := make([][]block, len(plans))
	for pi, p := range plans {
		for si, size := range opts.Sizes {
			b := block{size: size, start: len(cells)}
			for _, cand := range p.cands {
				for _, proto := range opts.Protocols {
					if !tierCovers(proto, size) {
						continue
					}
					cells = append(cells, Cell{Op: p.op, Bytes: size, Candidate: cand, Protocol: proto})
				}
			}
			b.n = len(cells) - b.start
			if b.n == 0 {
				return nil, fmt.Errorf("tune: no protocol tier covers %d bytes (size %d of the grid)", size, si)
			}
			blocks[pi] = append(blocks[pi], b)
		}
	}
	err := runCells(opts, len(cells), func(i int) error {
		c := &cells[i]
		outs, err := exec.Run(ctx, req, exec.Call{Algo: c.Candidate.Algo, BufferBytes: c.Bytes, Protocol: c.Protocol})
		if err != nil {
			return fmt.Errorf("tune: measure %s/%v at %d: %w", c.Candidate.Name, c.Protocol, c.Bytes, err)
		}
		c.Completion = outs[0].Result.Completion
		return nil
	})
	if err != nil {
		return nil, err
	}

	table := &Table{Version: Version, Topology: tp.String(), Seed: opts.Seed}
	for pi := range plans {
		for si, b := range blocks[pi] {
			best := cells[b.start]
			for _, c := range cells[b.start : b.start+b.n] {
				if better(c, best) {
					best = c
				}
			}
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
			if crt.GapPct < 0 {
				return nil, fmt.Errorf("tune: unsound certificate for %s/%v at %d: negative optimality gap %.2f%%",
					best.Candidate.Name, best.Protocol, b.size, crt.GapPct)
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
	res.Table, res.Cells = table, cells
	return res, nil
}

// tierCovers bounds each tier's swept size range. LL's 64 KiB and
// LL128's 256 KiB chunk caps make them strictly worse — and very
// expensive to simulate — far above their crossover points (4 MiB and
// 16 MiB on the reference fabric), so the sweep stops considering them
// a comfortable margin beyond: real NCCL's tuning tables bound the
// low-latency protocols to small messages the same way.
func tierCovers(p ir.Protocol, size int64) bool {
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
func candidates(tp *topo.Topology, op ir.OpType, opts Options) ([]Candidate, error) {
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
	// Anchor the search at the grid's extremes and middle: the
	// latency-bound, crossover and bandwidth-bound regimes.
	anchors := []int64{opts.Sizes[0]}
	if n := len(opts.Sizes); n > 1 {
		anchors = append(anchors, opts.Sizes[n/2], opts.Sizes[n-1])
	}
	for _, anchor := range anchors {
		cands, err := search.Search(tp, op, anchor, search.SearchOptions{
			Seed:       opts.Seed,
			Beam:       opts.Beam,
			Rounds:     opts.Rounds,
			ChunkBytes: opts.ChunkBytes,
		})
		if err != nil {
			// The sketch family does not cover every operator; sweeps
			// over uncovered ops measure registered candidates only.
			continue
		}
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

// runCells executes cells 0..n-1 through a worker pool when
// opts.Parallel is set, serially otherwise — the bench harness's
// deterministic-pool contract: results land in pre-indexed slots and
// the lowest-indexed error wins, so parallel output is byte-identical
// to serial.
func runCells(opts Options, n int, cell func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if !opts.Parallel || workers < 2 {
		for i := 0; i < n; i++ {
			if err := cell(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
