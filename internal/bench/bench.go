// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation (§2 motivation and §5) it regenerates the
// corresponding rows/series from the simulated system. The harness is
// shared by the ressclbench CLI and the repository's Go benchmarks.
package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/topo"
)

// Table is a rendered experiment artifact: one table or one figure's
// data series.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// FprintCSV renders the table as CSV (header row first, notes as
// trailing comment lines).
func (t *Table) FprintCSV(w io.Writer) {
	cw := csv.NewWriter(w)
	_ = cw.Write(append([]string{"experiment", "title"}, t.Header...))
	for _, row := range t.Rows {
		_ = cw.Write(append([]string{t.ID, t.Title}, row...))
	}
	cw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// FprintMarkdown renders the table as GitHub-flavoured markdown.
func (t *Table) FprintMarkdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n> %s\n", n)
	}
	fmt.Fprintln(w)
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(w, "%-*s", pad+2, c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options tune experiment execution.
type Options struct {
	// Quick shrinks buffer sweeps and scale points so the whole suite
	// runs in seconds (used by CI and Go benchmarks); the full settings
	// reproduce the paper's parameter ranges.
	Quick bool
	// Parallel fans the experiment's independent simulation cells across
	// a worker pool (see runner.go). Tables are assembled in canonical
	// order either way, so output is byte-identical to a serial run.
	Parallel bool
	// Workers caps the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Cache is the shared plan-compile cache. When nil each experiment
	// creates a private one, which still collapses a buffer sweep's
	// repeated compilations; the ressclbench CLI shares one cache across
	// all experiments.
	Cache *backend.Cache
	// Metrics, when non-nil, receives the plan-cache, simulator and
	// runtime counters that fill the machine-readable perf record
	// (-bench-json, -metrics-json).
	Metrics *obs.Metrics
	// Trace, when non-nil, records the simulated timeline of every cell
	// (-trace-out). Combine with a serial run: timelines append in cell
	// completion order, which only a serial run makes deterministic.
	Trace *obs.Trace
	// Protocol forces a transport protocol tier on every compilation that
	// does not already request one explicitly (-protocol). The zero value
	// leaves requests alone: plans simulate at Simple-tier cost, as
	// before protocol tiers existed.
	Protocol ir.Protocol
	// Ctx, when non-nil, cancels in-flight compilations at their phase
	// boundaries when the harness is interrupted (the ressclbench CLI
	// passes its signal-scoped root context). Nil never cancels.
	Ctx context.Context
}

// ctx returns the harness context, never nil (a nil Options.Ctx means
// "never cancel" by contract).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background() //resccl:allow ctxflow
}

// init fills derived defaults; every experiment calls it on entry.
func (o Options) init() Options {
	if o.Cache == nil {
		o.Cache = backend.NewCache()
	}
	return o
}

// compile routes a backend compilation through the plan cache as
// exec.Compile: it counts the cache hit or miss and records
// compile-stage spans into the trace sink on misses.
func compile(opts Options, b backend.Backend, req backend.Request) (*backend.Plan, error) {
	if opts.Protocol.Forced() && req.Protocol == ir.ProtoAuto {
		req.Protocol = opts.Protocol
	}
	o, err := exec.Compile(opts.ctx(), exec.Request{Backend: b, Cache: opts.Cache, Topo: req.Topo, Trace: opts.Trace, Metrics: opts.Metrics},
		exec.Call{Algo: req.Algo, Protocol: req.Protocol})
	return o.Plan, err
}

// Experiment generates the artifacts for one paper table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(opts Options) ([]*Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"table1", "Global link utilization of expert/synthesized plans on the MSCCL backend", Table1},
		{"fig2", "Time cost breakdown of primitives on the MSCCL runtime", Figure2},
		{"fig3", "Runtime interpreter vs direct kernel execution", Figure3},
		{"fig4", "Impact of TB parallelism on single-NIC bandwidth", Figure4},
		{"fig6", "Expert-designed AllGather/AllReduce bandwidth across buffer sizes", Figure6},
		{"fig7", "Synthesized AllGather/AllReduce speedup over MSCCL", Figure7},
		{"fig8", "Expert algorithms on additional topologies (2×4, 4×4)", Figure8},
		{"fig9", "Synthesized algorithms on additional topologies (2×4, 4×4)", Figure9},
		{"fig10a", "Offline workflow phase scalability", Figure10a},
		{"fig10b", "HPDS vs round-robin scheduling", Figure10b},
		{"fig11", "V100 cluster: HM collectives vs NCCL and MSCCL", Figure11},
		{"table3", "TB resource utilization: ResCCL vs MSCCL across topologies", Table3},
		{"fig12", "Per-TB time breakdown: sync vs execution, release saving", Figure12},
		{"fig13", "End-to-end Megatron training throughput (GPT-3, T5)", Figure13},
		{"ablation", "Design-choice ablations (granularity, allocation, scheduling policy, chunk size)", Ablations},
		{"faulted", "Goodput under injected faults and runtime recovery (dynamic interference)", Faulted},
		{"protocol-crossover", "NCCL protocol tiers: per-size completion and LL/LL128/Simple switch points", ProtocolCrossover},
		{"scale", "Simulator scale sweep: events/sec and wall time vs rank count (hierarchical AllReduce)", Scale},
		{"tune", "Autotuned dispatch: synthesized vs heuristic vs NCCL baseline per size bucket", TuneDispatch},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for _, e := range reg {
		if e.ID == id {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (known: %s)", id, strings.Join(ids, ", "))
}

// --- shared helpers ---

// gb formats bytes/s as GB/s.
func gb(bw float64) string { return fmt.Sprintf("%.1f", bw/1e9) }

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// mbLabel renders a buffer size like the paper's x axes.
func mbLabel(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%dGB", b>>30)
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	default:
		return fmt.Sprintf("%dKB", b>>10)
	}
}

// backends returns the three compared backends in paper order.
func backends() []backend.Backend {
	return []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()}
}

// bandwidth compiles the algorithm on every backend and returns algo
// bandwidth per backend per buffer size: out[backend][i] for bufs[i].
// Every (backend, buffer) pair is an independent cell; the plan cache
// collapses the per-backend compilations to one each.
func bandwidth(opts Options, tp *topo.Topology, algo *ir.Algorithm, bufs []int64) (map[string][]float64, error) {
	bks := backends()
	series := make([][]float64, len(bks))
	for i := range series {
		series[i] = make([]float64, len(bufs))
	}
	err := runCells(opts, len(bks)*len(bufs), func(c int) error {
		bi, fi := c/len(bufs), c%len(bufs)
		b := bks[bi]
		plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return fmt.Errorf("%s/%s: %w", b.Name(), algo.Name, err)
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, bufs[fi], plan)
		if err != nil {
			return fmt.Errorf("%s/%s buf=%d: %w", b.Name(), algo.Name, bufs[fi], err)
		}
		series[bi][fi] = res[0].AlgoBW
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64, len(bks))
	for i, b := range bks {
		out[b.Name()] = series[i]
	}
	return out, nil
}

// bufSweep returns the paper's buffer-size range, shrunk under Quick:
// the smallest point, a middle point, and the largest point at or below
// 512 MiB (the bandwidth-saturated regime is reached well before then,
// so the shape is preserved at a fraction of the cost).
func bufSweep(opts Options, full []int64) []int64 {
	if !opts.Quick || len(full) <= 3 {
		return full
	}
	capped := full
	for i := len(full) - 1; i > 0; i-- {
		if full[i] <= 512<<20 {
			capped = full[:i+1]
			break
		}
	}
	return []int64{capped[0], capped[len(capped)/2], capped[len(capped)-1]}
}

var paperBufs = []int64{8 << 20, 16 << 20, 32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20, 1 << 30, 2 << 30, 4 << 30}
