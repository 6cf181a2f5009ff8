package bench

import (
	"fmt"

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

// runSim is the harness's counted sim.Run wrapper: it counts the run
// into opts.Metrics as exec.Simulate does. With a trace sink
// configured it additionally records the run's timeline.
func runSim(opts Options, cfg sim.Config) (*sim.Result, error) {
	if opts.Trace != nil {
		cfg.RecordTimeline = true
	}
	res, err := sim.Run(cfg)
	if err == nil {
		exec.Count(opts.Metrics, cfg.Topo, res)
		if opts.Trace != nil {
			opts.Trace.AddTimeline(trace.BuildTimeline(cfg.Kernel.Name, cfg.Kernel, cfg.Topo, res))
		}
	}
	return res, err
}

// runConcurrent is the counted sim.RunConcurrent wrapper.
func runConcurrent(opts Options, cfg sim.MultiConfig) (*sim.MultiResult, error) {
	if opts.Trace != nil {
		cfg.RecordTimeline = true
	}
	mr, err := sim.RunConcurrent(cfg)
	if err == nil {
		exec.Count(opts.Metrics, cfg.Topo, mr.Sessions...)
		if opts.Trace != nil {
			for i, res := range mr.Sessions {
				name := fmt.Sprintf("session%d/%s", i, cfg.Sessions[i].Kernel.Name)
				opts.Trace.AddTimeline(trace.BuildTimeline(name, cfg.Sessions[i].Kernel, cfg.Topo, res))
			}
		}
	}
	return mr, err
}
