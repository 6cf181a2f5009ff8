package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/trace"
)

// The harness decomposes every experiment into independent *cells* —
// one (backend, algorithm, topology, buffer) simulation or compilation
// unit. Cells write their results into pre-indexed slots and tables are
// assembled serially afterwards in canonical order, so a parallel run
// produces byte-identical tables to a serial one: ordering never depends
// on goroutine scheduling, and the plan cache's singleflight keeps
// hit/miss counts deterministic too. The only quantities that may differ
// between two runs of any kind are measured wall-clock timings — the
// Figure 10a phase timings and the faulted replan table's recovery
// columns — which are non-deterministic even serially.

// runCells runs cells 0..n-1 on exec.Cells' deterministic pool under
// the harness context, serially unless opts.Parallel is set.
func runCells(opts Options, n int, cell func(i int) error) error {
	return exec.Cells(opts.Ctx, exec.Workers(opts.Parallel, opts.Workers), n, cell)
}

// simulate runs plans side by side on req.Topo through exec.Simulate,
// buf bytes per rank each, and returns one Result per plan. It counts
// into opts.Metrics and, with a trace sink configured, records each
// run's timeline under its kernel name, prefixed with session%d/ when
// several plans share the fabric.
func simulate(opts Options, req exec.Request, buf int64, plans ...*backend.Plan) ([]*sim.Result, error) {
	req.Metrics, req.Trace, req.RecordTimeline = opts.Metrics, opts.Trace, opts.Trace != nil
	calls := make([]exec.Call, len(plans))
	outs := make([]exec.Outcome, len(plans))
	for i, p := range plans {
		calls[i], outs[i] = exec.Call{Algo: p.Algo, BufferBytes: buf}, exec.Outcome{Plan: p}
	}
	if err := exec.Simulate(req, calls, outs); err != nil {
		return nil, err
	}
	res := make([]*sim.Result, len(plans))
	for i, p := range plans {
		res[i] = outs[i].Result
		if opts.Trace != nil {
			name := p.Kernel.Name
			if len(plans) > 1 {
				name = fmt.Sprintf("session%d/%s", i, name)
			}
			opts.Trace.AddTimeline(trace.BuildTimeline(name, p.Kernel, req.Topo, res[i]))
		}
	}
	return res, nil
}
