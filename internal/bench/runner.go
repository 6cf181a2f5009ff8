package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// runCells executes cells 0..n-1 through the worker pool when
// opts.Parallel is set, serially otherwise. The returned error is the
// lowest-indexed cell's error in both modes, so failure output is
// deterministic as well.
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
