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
// All three produce the same kernel.Kernel representation, executed by
// the sim package under identical cost models, so differences in results
// are attributable to scheduling/allocation/runtime policy alone — the
// paper's experimental methodology.
package backend

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
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

// vet runs the compile-time analysis gate on a freshly built plan. A
// plan that fails it would hang a run, so compilation itself fails; the
// report is attached either way for callers that inspect warnings. The
// resource-efficiency budget lints (analyze.BudgetLints) ride along as
// warnings: an over-budget plan still runs correctly, so the compile
// gate admits it, but `-strict` tooling, the tune sweep and the replan
// gate act on the attached findings. Both passes only read the kernel,
// so the lints run beside the analysis.
func vet(p *Plan, tp *topo.Topology) (*Plan, error) {
	var lints []analyze.Diag
	var report *analyze.Report
	err := dag.Join(func() error {
		if tp != nil {
			lints = analyze.BudgetLints(p.Kernel, tp, 0, 0, analyze.Budget{})
		}
		return nil
	}, func() (err error) {
		report, err = analyze.Plan(p.Kernel, analyze.Options{Checks: analyze.CheckQuick})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("backend %s: vet: %w", p.Backend, err)
	}
	report.Attach(p.Kernel.Graph, lints...)
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

// tbSpec describes one thread block while building a baseline kernel.
type tbSpec struct {
	rank  ir.Rank
	label string
	prims []ir.Primitive
}

// buildKernel assembles a Kernel from TB specs. Slot order inside each
// spec must already be consistent with the single global task order
// (ascending TaskID), which guarantees deadlock freedom for MBMajor
// kernels.
func buildKernel(name string, g *dag.Graph, specs []tbSpec, order kernel.MBOrder, mode kernel.ExecMode) (*kernel.Kernel, error) {
	k := &kernel.Kernel{
		Name:      name,
		Graph:     g,
		Mode:      mode,
		SendTB:    make([]int, len(g.Tasks)),
		RecvTB:    make([]int, len(g.Tasks)),
		LinkPreds: dag.CSR{Off: make([]int32, len(g.Tasks)+1)},
	}
	for i := range k.SendTB {
		k.SendTB[i] = -1
		k.RecvTB[i] = -1
	}
	for i, spec := range specs {
		tb := &kernel.TBProgram{ID: i, Rank: spec.rank, Order: order, Label: spec.label}
		tb.Slots = append(tb.Slots, spec.prims...)
		k.TBs = append(k.TBs, tb)
		for _, p := range spec.prims {
			if p.Kind == ir.PrimSend {
				k.SendTB[p.Task] = i
			} else {
				k.RecvTB[p.Task] = i
			}
		}
	}
	if err := kernel.Validate(k); err != nil {
		return nil, fmt.Errorf("backend: %w", err)
	}
	return k, nil
}

// connectionTBs builds the classic connection-based TB layout: one send
// TB and one recv TB per directed connection in (Src, Dst) order,
// covering the given tasks (which must be in ascending TaskID order).
// The labelPrefix distinguishes channels/stages.
func connectionTBs(g *dag.Graph, tasks []ir.TaskID, labelPrefix string) []tbSpec {
	byConn := g.ByConn(tasks)
	var specs []tbSpec
	for c := range byConn.Len() {
		if len(byConn.Row(c)) == 0 {
			continue
		}
		conn := g.Connection(c)
		send := tbSpec{rank: conn.Src, label: labelPrefix + conn.String() + "/send"}
		recv := tbSpec{rank: conn.Dst, label: labelPrefix + conn.String() + "/recv"}
		for _, t := range byConn.Row(c) {
			s, r := g.Tasks[t].Primitives()
			send.prims, recv.prims = append(send.prims, s), append(recv.prims, r)
		}
		specs = append(specs, send, recv)
	}
	return specs
}
