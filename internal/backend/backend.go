// Package backend implements the three collective communication
// backends the paper compares:
//
//   - an NCCL-like backend: vendor-standard channelized ring algorithms,
//     connection-based TB allocation, algorithm-level (lazy) execution,
//     runtime interpreter;
//   - an MSCCL-like backend: executes custom algorithms; stage-level
//     execution with per-stage channels for expert algorithms carrying
//     stage annotations, algorithm-level execution for synthesizer
//     output; runtime interpreter;
//   - the ResCCL backend: HPDS primitive-level scheduling, state-based
//     TB allocation, directly generated lightweight kernels.
//
// All three lower through the same kernel.Generate. NCCL and MSCCL keep
// only their policy: the algorithm they run, how they partition its
// tasks into channels, instances or stage groups for
// talloc.ConnectionBased, and whether they run lazily at algorithm level
// (compileConnectionBased). The sim package executes every kernel under
// identical cost models, so differences in results are attributable to
// scheduling/allocation/runtime policy alone — the paper's experimental
// methodology.
package backend

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// Request describes one collective to compile.
type Request struct {
	// Algo is the custom algorithm to execute. The NCCL backend ignores
	// it (vendor libraries run their own standard algorithms) and only
	// honours Algo.Op and Algo.NRanks.
	Algo *ir.Algorithm
	Topo *topo.Topology
	// Protocol is the transport protocol tier the plan should run under.
	// Compilation is size-independent, so callers that auto-select by
	// message size (SelectProtocol) resolve the tier before requesting a
	// plan; the tier is stamped on the kernel and enters the plan-cache
	// fingerprint, so forced and auto plans never collide. The zero
	// value (auto) behaves as Simple.
	Protocol ir.Protocol
	// TuneHash identifies the dispatch-table generation that selected
	// this plan (tune.Table.Hash), or "" for undispatched requests. It
	// enters the cache fingerprint so a re-tuned table never serves a
	// plan cached under an earlier generation.
	TuneHash string
}

// Plan is a compiled, executable collective.
type Plan struct {
	Backend string
	// Algo is the algorithm actually executed (the NCCL backend
	// substitutes its own).
	Algo   *ir.Algorithm
	Kernel *kernel.Kernel
	// Stages records the wall time of each compile phase for
	// observability (ResCCL reports its full pipeline; the baseline
	// backends report a single "compile" stage).
	Stages []obs.Stage
	// Vet is the always-on static-analysis verdict (analyze.CheckQuick:
	// deadlock freedom; the kernel's structure and pipeline invariants
	// were checked when it was built). Plans are cached by reference,
	// so the verdict rides along with the cached plan and is never
	// recomputed on a hit. The full analysis (every pass) is Analysis,
	// computed only when a caller first asks for it.
	Vet *analyze.Report

	// analysisOnce guards analysis and analysisErr; a Plan is therefore
	// shared by pointer and never copied.
	analysisOnce sync.Once
	analysis     *analyze.Report
	analysisErr  error
}

// Analysis returns the plan's full static-analysis report
// (analyze.Plan with every pass). The first call computes it; every
// later call returns the same report, so a plan the cache serves many
// times is analysed once. The report is shared: callers only read it,
// and add their own diagnostics to a copy (analyze.Report.With).
func (p *Plan) Analysis() (*analyze.Report, error) {
	p.analysisOnce.Do(func() {
		p.analysis, p.analysisErr = analyze.Plan(p.Kernel, analyze.Options{})
	})
	return p.analysis, p.analysisErr
}

// vet runs the compile-time analysis gate (analyze.CheckQuick) on a
// freshly built plan. A plan that fails it would hang a run, so
// compilation itself fails. Budget lints only warn, so the gate leaves
// them to the callers that act on them (cert.BudgetLints).
func vet(p *Plan) (*Plan, error) {
	report, err := analyze.Plan(p.Kernel, analyze.Options{Checks: analyze.CheckQuick})
	if err != nil {
		return nil, fmt.Errorf("backend %s: vet: %w", p.Backend, err)
	}
	p.Vet = report
	if err := report.Err(); err != nil {
		return nil, fmt.Errorf("backend %s: compiled plan failed static analysis: %w", p.Backend, err)
	}
	return p, nil
}

// Backend compiles collectives into executable kernels.
//
// Compile is context-aware: backends poll ctx at phase boundaries
// (dependency analysis, scheduling, allocation, lowering), so a caller
// that cancels or whose deadline expires stops burning CPU at the next
// checkpoint instead of completing a plan nobody will read. A cancelled
// compile returns an error satisfying errors.Is(err, context.Canceled)
// or errors.Is(err, context.DeadlineExceeded).
type Backend interface {
	Name() string
	Compile(ctx context.Context, req Request) (*Plan, error)
}

// Names lists the backend names Named accepts, in the order the
// comparison tables print them.
func Names() []string { return []string{"nccl", "msccl", "resccl"} }

// Named is the one mapping from backend names to backends: "resccl"
// (also the empty name), "nccl" or "msccl", case-insensitively.
func Named(name string) (Backend, error) {
	switch strings.ToLower(name) {
	case "", "resccl":
		return NewResCCL(), nil
	case "nccl":
		return NewNCCL(), nil
	case "msccl":
		return NewMSCCL(), nil
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (known: %s)", name, strings.Join(Names(), ", "))
	}
}

// ctxCheck is the standard compile-phase checkpoint: it returns a typed
// cancellation error when ctx is done, nil otherwise. A nil ctx never
// cancels, so internal callers without a lifecycle can pass nil safely.
func ctxCheck(ctx context.Context, backendName, phase string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: compile cancelled before %s: %w", backendName, phase, err)
	}
	return nil
}

// compileConnectionBased is the baseline backends' one compile path. A
// baseline is three policy choices: the algorithm it runs for a
// request, the partition of the algorithm's tasks into channels,
// instances or stage groups, and whether it runs lazily at algorithm
// level, one pass per micro-batch (barrier). The rest is shared:
// dag.Build, one send and one recv TB per connection within each part
// (talloc.ConnectionBased), and kernel.Generate over the tasks in
// ascending TaskID order (sched.TaskIDOrder). The kernel then runs
// micro-batch major under the runtime interpreter.
func compileConnectionBased(ctx context.Context, name string, req Request,
	algorithm func(Request) (*ir.Algorithm, error),
	partition func(*dag.Graph) (parts []talloc.Part, barrier bool)) (*Plan, error) {
	tag := strings.ToLower(name)
	if req.Algo == nil || req.Topo == nil {
		return nil, fmt.Errorf("%s: request needs an algorithm and topology", tag)
	}
	if !req.Protocol.Valid() {
		return nil, fmt.Errorf("%s: undefined protocol tier %d", tag, int(req.Protocol))
	}
	if err := ctxCheck(ctx, tag, "algorithm construction"); err != nil {
		return nil, err
	}
	start := time.Now()
	algo, err := algorithm(req)
	if err != nil {
		return nil, err
	}
	if err := ctxCheck(ctx, tag, "dependency analysis"); err != nil {
		return nil, err
	}
	g, err := dag.Build(algo, req.Topo)
	if err != nil {
		return nil, err
	}
	if err := ctxCheck(ctx, tag, "TB layout"); err != nil {
		return nil, err
	}
	parts, barrier := partition(g)
	k, err := kernel.Generate(sched.TaskIDOrder(g), talloc.ConnectionBased(g, parts))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tag, err)
	}
	k.Mode, k.MBBarrier, k.Protocol = kernel.ModeInterpreted, barrier, req.Protocol
	for _, tb := range k.TBs {
		tb.Order = kernel.MBMajor
	}
	stages := []obs.Stage{{Name: "compile", Duration: time.Since(start)}}
	return vet(&Plan{Backend: name, Algo: algo, Kernel: k, Stages: stages})
}
