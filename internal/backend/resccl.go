package backend

import (
	"context"
	"fmt"

	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/ir"
)

// ResCCL is the paper's backend: HPDS primitive-level scheduling,
// state-based flexible TB allocation, and directly generated lightweight
// kernels (no runtime interpreter).
type ResCCL struct {
	// Options tune the compiler pipeline; the zero value is the paper's
	// default configuration.
	Options core.Options
}

// NewResCCL returns a ResCCL backend with default options.
func NewResCCL() *ResCCL { return &ResCCL{} }

// Name implements Backend.
func (r *ResCCL) Name() string { return "ResCCL" }

// Compile implements Backend. The full sched→talloc→kernel pipeline
// checks ctx at each phase boundary (core.Compile), so cancellation
// stops the pipeline at the next checkpoint.
func (r *ResCCL) Compile(ctx context.Context, req Request) (*Plan, error) {
	if req.Algo == nil || req.Topo == nil {
		return nil, fmt.Errorf("resccl: request needs an algorithm and topology")
	}
	c, err := core.Compile(ctx, req.Algo, req.Topo, r.options(req))
	if err != nil {
		return nil, err
	}
	return vet(&Plan{Backend: r.Name(), Algo: req.Algo, Kernel: c.Kernel, Stages: c.Phases.Stages()})
}

// options overlays the request's protocol tier (when forced) onto the
// backend's configured options.
func (r *ResCCL) options(req Request) core.Options {
	opts := r.Options
	if req.Protocol != ir.ProtoAuto {
		opts.Protocol = req.Protocol
	}
	return opts
}
