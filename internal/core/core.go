// Package core orchestrates the ResCCL backend-optimization workflow of
// §4.1 (Fig. 5): parse (ResCCLang → algorithm), analyze (algorithm →
// dependency DAG), schedule (HPDS → task pipeline), allocate (state-based
// TB assignment) and lower (pipeline → lightweight kernel). It records
// per-phase wall time, which Fig. 10(a) reports as the offline workflow
// cost.
package core

import (
	"context"
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/lang"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// AllocPolicy selects the TB allocation strategy.
type AllocPolicy int

// Allocation policies.
const (
	// AllocStateBased is ResCCL's flexible allocation (§4.4).
	AllocStateBased AllocPolicy = iota
	// AllocConnectionBased is the rigid per-connection baseline, kept
	// for ablations.
	AllocConnectionBased
)

func (p AllocPolicy) String() string {
	if p == AllocStateBased {
		return "state-based"
	}
	return "connection-based"
}

// Options tune the compilation pipeline. The zero value is the paper's
// default configuration: HPDS scheduling, state-based allocation, direct
// kernels.
type Options struct {
	Policy sched.Policy
	Alloc  AllocPolicy
	Mode   kernel.ExecMode
	// Protocol is the transport protocol tier stamped on the generated
	// kernel. Compilation itself is protocol-independent; the simulator
	// applies the tier's cost parameters at run time. The zero value
	// (auto) behaves as Simple.
	Protocol ir.Protocol
}

// Phases records the wall time of each offline workflow phase (Fig.
// 10(a)).
type Phases struct {
	Parse    time.Duration
	Analyze  time.Duration
	Schedule time.Duration
	Alloc    time.Duration
	Lower    time.Duration
}

// Total returns the end-to-end offline cost.
func (p Phases) Total() time.Duration {
	return p.Parse + p.Analyze + p.Schedule + p.Alloc + p.Lower
}

// Stages renders the phases as observability stages in pipeline order,
// omitting phases that did not run (a zero Parse means the algorithm was
// built programmatically rather than compiled from ResCCLang).
func (p Phases) Stages() []obs.Stage {
	stages := make([]obs.Stage, 0, 5)
	if p.Parse > 0 {
		stages = append(stages, obs.Stage{Name: "parse", Duration: p.Parse})
	}
	stages = append(stages,
		obs.Stage{Name: "analyze", Duration: p.Analyze},
		obs.Stage{Name: "schedule", Duration: p.Schedule},
		obs.Stage{Name: "alloc", Duration: p.Alloc},
		obs.Stage{Name: "lower", Duration: p.Lower},
	)
	return stages
}

// Compiled bundles every artifact of one compilation.
type Compiled struct {
	Algo       *ir.Algorithm
	Graph      *dag.Graph
	Pipeline   *sched.Pipeline
	Assignment *talloc.Assignment
	Kernel     *kernel.Kernel
	Phases     Phases
	Options    Options
}

// checkpoint is the phase-boundary cancellation probe: a cancelled or
// deadline-expired ctx stops the pipeline before the named phase with a
// typed error (errors.Is context.Canceled / context.DeadlineExceeded).
// A nil ctx never cancels.
func checkpoint(ctx context.Context, phase string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: compile cancelled before %s: %w", phase, err)
	}
	return nil
}

// Compile runs the full ResCCL pipeline on an already-built algorithm.
// Each phase boundary (verify → analyze → schedule → alloc → lower) is a
// cancellation checkpoint for ctx, so a dropped caller stops burning CPU
// at the next phase instead of completing the plan.
//
// The postcondition replay reads the algorithm and writes nothing the
// later phases read, so it runs beside them. Its failure wins the join
// and cancels them at their next checkpoint; either way Compile returns
// only once both sides have.
func Compile(ctx context.Context, algo *ir.Algorithm, t *topo.Topology, opts Options) (*Compiled, error) {
	if !opts.Protocol.Valid() {
		return nil, fmt.Errorf("core: undefined protocol tier %d", int(opts.Protocol))
	}
	if err := checkpoint(ctx, "verification"); err != nil {
		return nil, err
	}
	postcondition := func(err error) error {
		return fmt.Errorf("core: algorithm %q fails its %v postcondition: %w", algo.Name, algo.Op, err)
	}
	order, err := algo.Canonical()
	if err != nil {
		return nil, postcondition(err)
	}

	if ctx == nil {
		ctx = context.Background() // a nil ctx never cancels
	}
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var c *Compiled
	err = dag.Join(func() error {
		if err := collective.CheckCanonical(algo, order); err != nil {
			err = postcondition(err)
			cancel(err)
			return err
		}
		return nil
	}, func() (err error) {
		c, err = compile(ctx, algo, order, t, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// compile runs the phases after verification on algo's canonical
// transfer order.
func compile(ctx context.Context, algo *ir.Algorithm, order []int32, t *topo.Topology, opts Options) (*Compiled, error) {
	c := &Compiled{Algo: algo, Options: opts}
	if err := checkpoint(ctx, "dependency analysis"); err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := dag.BuildCanonical(algo, order, t)
	if err != nil {
		return nil, fmt.Errorf("core: dependency analysis: %w", err)
	}
	c.Graph = g
	c.Phases.Analyze = time.Since(start)

	if err := checkpoint(ctx, "scheduling"); err != nil {
		return nil, err
	}
	start = time.Now()
	p, err := sched.Schedule(g, opts.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: scheduling: %w", err)
	}
	c.Pipeline = p
	c.Phases.Schedule = time.Since(start)

	if err := checkpoint(ctx, "TB allocation"); err != nil {
		return nil, err
	}
	start = time.Now()
	switch opts.Alloc {
	case AllocStateBased:
		c.Assignment = talloc.StateBased(p, p.Timeline())
	case AllocConnectionBased:
		c.Assignment = talloc.ConnectionBased(g, []talloc.Part{{Tasks: p.Order}})
	default:
		return nil, fmt.Errorf("core: unknown allocation policy %v", opts.Alloc)
	}
	c.Phases.Alloc = time.Since(start)

	if err := checkpoint(ctx, "kernel lowering"); err != nil {
		return nil, err
	}
	start = time.Now()
	k, err := kernel.Generate(p, c.Assignment)
	if err != nil {
		return nil, fmt.Errorf("core: lowering: %w", err)
	}
	k.Mode = opts.Mode
	k.Protocol = opts.Protocol
	c.Kernel = k
	c.Phases.Lower = time.Since(start)
	return c, nil
}

// CompileDSL parses ResCCLang source and compiles it, recording the
// parse phase as well. The parse itself is preceded by a ctx checkpoint.
func CompileDSL(ctx context.Context, src string, t *topo.Topology, opts Options) (*Compiled, error) {
	if err := checkpoint(ctx, "parse"); err != nil {
		return nil, err
	}
	start := time.Now()
	algo, err := lang.Compile(src)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	c, err := Compile(ctx, algo, t, opts)
	if err != nil {
		return nil, err
	}
	c.Phases.Parse = parse
	return c, nil
}
