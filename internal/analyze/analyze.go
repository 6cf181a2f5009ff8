// Package analyze is the static plan analyzer ("resccl vet"): it
// consumes a compiled plan — the per-TB primitive programs of a
// kernel.Kernel together with its dependency graph — and, without
// executing or simulating anything, proves the absence of (or reports,
// as typed diagnostics) four classes of plan defects:
//
//   - deadlock: a cycle in the cross-TB wait-for graph induced by
//     send/recv rendezvous, intra-TB program order, data-dependency
//     semaphores and link-window serialization (waitfor.go);
//   - chunk hazards: write-write or read-write races on buffer slots
//     that are unordered under the plan's happens-before relation
//     (hazard.go);
//   - infeasibility: communication links whose assigned traffic makes
//     the plan's epoch structure unachievable under the α+c·β cost
//     model, and thread-block over-subscription beyond the occupancy
//     the topology supports (feasible.go);
//   - dead or unreachable primitives: transfers whose delivered data
//     can never reach a location the collective's postcondition
//     obligates, cross-checked against the symbolic contribution sets
//     of internal/verify (deadcode.go).
//
// The same discipline SCCL and GC3 apply to collective programs before
// they touch hardware, applied to ResCCL's compiled plans: analysis
// runs in milliseconds, so it gates every compile (internal/backend)
// and every replan (internal/rt) rather than waiting for a simulation
// or a concurrent execution to fail.
//
// The analyzer owns none of the plan models it reads. Its structure pass
// is kernel.CheckStructure (the check kernel.Validate runs), its
// pipeline pass is invariant.CheckPipeline (the check sched.Validate
// runs), and its feasibility bound and occupancy replay read
// talloc.Timeline, the §4.4 recurrence the TB allocator uses.
package analyze

import (
	"fmt"
	"sort"
	"strings"

	"github.com/resccl/resccl/internal/analyze/invariant"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
)

// Severity grades a diagnostic.
type Severity int

// Severities, ordered from most to least severe.
const (
	// SevError marks a defect that makes the plan unsafe to execute
	// (deadlock, hazard, broken invariant). Report.Err surfaces it.
	SevError Severity = iota
	// SevWarn marks a defect that wastes resources or indicates a
	// degenerate plan but cannot corrupt a run.
	SevWarn
	// SevInfo marks analysis notes (skipped checks, coverage caveats).
	SevInfo
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarn:
		return "warn"
	case SevInfo:
		return "info"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Checks selects which analysis passes run, as a bitmask.
type Checks uint

// Individual analysis passes.
const (
	// CheckStructure runs kernel.CheckStructure, the check
	// kernel.Validate shares: every task has exactly one send and one
	// recv primitive, on the right ranks and TBs, TB IDs equal their
	// index, and the link predecessor table is a well-formed CSR.
	CheckStructure Checks = 1 << iota
	// CheckDeadlock builds the cross-TB wait-for graph and reports any
	// cycle with the full primitive path.
	CheckDeadlock
	// CheckHazards reports buffer-slot races unordered under
	// happens-before.
	CheckHazards
	// CheckFeasibility reports links whose α+c·β lower bound exceeds the
	// plan's critical-path estimate and TB over-subscription.
	CheckFeasibility
	// CheckDeadCode reports primitives whose data cannot reach any
	// postcondition-obligated location.
	CheckDeadCode
	// CheckCoverage replays the plan through the symbolic verifier
	// (internal/verify) and reports postcondition gaps.
	CheckCoverage
	// CheckPipelineInvariants re-runs the scheduler's pipeline
	// invariants (internal/analyze/invariant) on the kernel's echoed
	// schedule.
	CheckPipelineInvariants
)

// The gates below run on plans a producer has just built, and every
// producer already ran CheckStructure's and CheckPipelineInvariants'
// functions: kernel.Generate and the baseline backends' kernel builder
// call kernel.Validate, and sched.Schedule calls sched.Validate. So the
// gates leave both passes out rather than repeat them; CheckAll keeps
// them for kernels no producer fully checked (a loaded plan's schedule
// echo, fuzzed mutants).

// CheckQuick is the always-on compile-time gate: the linear-time pass,
// beyond the producers' own checks, that catches a plan able to hang a
// run.
const CheckQuick = CheckDeadlock

// CheckAll runs every pass.
const CheckAll = CheckStructure | CheckDeadlock | CheckHazards |
	CheckFeasibility | CheckDeadCode | CheckCoverage | CheckPipelineInvariants

// CheckGate is the pre-resume replan and synthesis gate: every pass the
// producers did not already run except the postcondition passes, which
// judge healthy plans only — repair plans carry degraded postconditions
// that internal/rt proves separately.
const CheckGate = CheckDeadlock | CheckHazards | CheckFeasibility

// Options tune an analysis.
type Options struct {
	// Checks selects passes; zero means CheckAll.
	Checks Checks
}

// The wait-for graph is unrolled for analysisMB micro-batches: enough
// to expose cross-micro-batch coupling of task-major loops without
// scaling the graph by the real micro-batch count. One pass reports at
// most maxDiagsPerClass diagnostics; the report notes elided counts.
const (
	analysisMB       = 2
	maxDiagsPerClass = 16
)

// Diag is one typed diagnostic.
type Diag struct {
	// Code names the lint ("deadlock", "hazard-ww", "hazard-rw",
	// "link-infeasible", "tb-oversub", "dead-primitive", "coverage",
	// "structure", "protocol", plus the invariant codes of
	// internal/analyze/invariant).
	Code     string
	Severity Severity
	// Message is the stable human-readable description.
	Message string
	// Tasks lists the tasks involved, primary first (empty for
	// plan-wide diagnostics).
	Tasks []ir.TaskID
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Severity, d.Code, d.Message)
}

// Report is the outcome of one analysis: the plan identity and every
// diagnostic, sorted deterministically (severity, pass code, the
// primary task's step and rank, task ID, message).
type Report struct {
	Kernel string
	Checks Checks
	Diags  []Diag
}

// Counts returns the number of diagnostics per severity.
func (r *Report) Counts() (errs, warns, infos int) {
	for _, d := range r.Diags {
		switch d.Severity {
		case SevError:
			errs++
		case SevWarn:
			warns++
		default:
			infos++
		}
	}
	return
}

// Clean reports whether the analysis produced no error diagnostics.
func (r *Report) Clean() bool {
	errs, _, _ := r.Counts()
	return errs == 0
}

// Err returns an error describing the first error-severity diagnostic,
// nil when the plan is clean.
func (r *Report) Err() error {
	for _, d := range r.Diags {
		if d.Severity == SevError {
			errs, _, _ := r.Counts()
			if errs > 1 {
				return fmt.Errorf("analyze: plan %q: %s: %s (and %d more errors)",
					r.Kernel, d.Code, d.Message, errs-1)
			}
			return fmt.Errorf("analyze: plan %q: %s: %s", r.Kernel, d.Code, d.Message)
		}
	}
	return nil
}

// String renders the report in the stable format golden tests pin: one
// header line, then one line per diagnostic.
func (r *Report) String() string {
	var b strings.Builder
	errs, warns, infos := r.Counts()
	fmt.Fprintf(&b, "plan %s: %d error(s), %d warning(s), %d note(s)\n",
		r.Kernel, errs, warns, infos)
	for _, d := range r.Diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

func (r *Report) add(d Diag) { r.Diags = append(r.Diags, d) }

// addLimited appends up to max diagnostics from ds under one code and
// notes how many were elided.
func (r *Report) addLimited(ds []Diag, max int) {
	if len(ds) <= max {
		r.Diags = append(r.Diags, ds...)
		return
	}
	r.Diags = append(r.Diags, ds[:max]...)
	r.add(Diag{
		Code:     ds[0].Code,
		Severity: SevInfo,
		Message:  fmt.Sprintf("%d further %s diagnostic(s) elided", len(ds)-max, ds[0].Code),
	})
}

// diagKey resolves the (step, rank) of a diagnostic's primary task:
// the schedule position its pass fired at. Diagnostics without tasks
// (plan-wide notes) sort first within their code via (-1, -1).
func diagKey(d Diag, g *dag.Graph) (step, rank int) {
	if len(d.Tasks) == 0 || g == nil {
		return -1, -1
	}
	t := int(d.Tasks[0])
	if t < 0 || t >= len(g.Tasks) {
		return -1, -1
	}
	task := g.Tasks[t]
	return int(task.Step), int(task.Src)
}

// sortDiags restores the canonical diagnostic order: severity, then
// pass (code), then the primary task's (step, rank) schedule position,
// then task ID and message. Keying on (pass, step, rank) before the
// raw task ID keeps the order stable when several passes fire at the
// same step: task IDs are dense in (step, chunk, src, dst) order, so
// two passes reporting the same step through different tasks would
// otherwise interleave unpredictably as plans grow.
func (r *Report) sortDiags(g *dag.Graph) {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		as, ar := diagKey(a, g)
		bs, br := diagKey(b, g)
		if as != bs {
			return as < bs
		}
		if ar != br {
			return ar < br
		}
		at, bt := ir.TaskID(-1), ir.TaskID(-1)
		if len(a.Tasks) > 0 {
			at = a.Tasks[0]
		}
		if len(b.Tasks) > 0 {
			bt = b.Tasks[0]
		}
		if at != bt {
			return at < bt
		}
		return a.Message < b.Message
	})
}

// Attach merges externally produced diagnostics (the cert budget and
// gap lints ride along here) into the report and restores the
// canonical (severity, pass, step, rank) order. g may be nil when the
// extra diagnostics carry no task references.
func (r *Report) Attach(g *dag.Graph, ds ...Diag) {
	if len(ds) == 0 {
		return
	}
	r.Diags = append(r.Diags, ds...)
	r.sortDiags(g)
}

// With returns a copy of r with ds attached as Attach attaches them,
// and leaves r as it was, so a report shared read-only by many callers
// can gain per-caller diagnostics. The copy owns its diagnostic list;
// the diagnostics' task lists stay shared and must not be modified.
func (r *Report) With(g *dag.Graph, ds ...Diag) *Report {
	c := *r
	c.Diags = make([]Diag, len(r.Diags), len(r.Diags)+len(ds))
	copy(c.Diags, r.Diags)
	c.Attach(g, ds...)
	return &c
}

// errorDiags maps the findings of a check shared with a producer
// (kernel.CheckStructure, invariant.CheckPipeline) to error diagnostics.
func errorDiags(fs []invariant.Finding) []Diag {
	ds := make([]Diag, len(fs))
	for i, f := range fs {
		ds[i] = Diag{Code: f.Code, Severity: SevError, Message: f.Message, Tasks: f.Tasks}
	}
	return ds
}

// Plan statically analyzes a compiled plan. It never executes the
// kernel and is safe to call on arbitrarily corrupt plans (fuzzed
// mutants included): defects become diagnostics, not panics. Only a nil
// kernel or graph is an error.
func Plan(k *kernel.Kernel, opts Options) (*Report, error) {
	if k == nil || k.Graph == nil {
		return nil, fmt.Errorf("analyze: nil kernel or graph")
	}
	checks := opts.Checks
	if checks == 0 {
		checks = CheckAll
	}
	r := &Report{Kernel: k.Name, Checks: checks}
	v := newPlanView(k)

	structureOK := true
	if checks&CheckStructure != 0 {
		fs := kernel.CheckStructure(k)
		structureOK = len(fs) == 0
		r.addLimited(errorDiags(fs), maxDiagsPerClass)
	}
	if checks&CheckPipelineInvariants != 0 {
		if subs := v.subTasks(); subs != nil {
			r.addLimited(errorDiags(invariant.CheckPipeline(v.g, subs, k.TaskPos)), maxDiagsPerClass)
		}
	}

	// The deadlock and hazard passes share one wait-for graph.
	var w *wfGraph
	if checks&(CheckDeadlock|CheckHazards) != 0 {
		w = buildWaitFor(v, analysisMB)
	}
	deadlockFree := true
	if checks&CheckDeadlock != 0 {
		ds, free := checkDeadlock(w)
		deadlockFree = free
		r.addLimited(ds, maxDiagsPerClass)
	}
	if checks&CheckHazards != 0 {
		if deadlockFree && structureOK {
			r.addLimited(checkHazards(w), maxDiagsPerClass)
		} else {
			r.add(Diag{Code: "hazard", Severity: SevInfo,
				Message: "hazard analysis skipped: plan has structural or deadlock errors"})
		}
	}
	if checks&CheckFeasibility != 0 {
		r.addLimited(checkFeasibility(v), maxDiagsPerClass)
	}
	if checks&CheckDeadCode != 0 {
		r.addLimited(checkDeadCode(v), maxDiagsPerClass)
	}
	if checks&CheckCoverage != 0 {
		r.addLimited(checkCoverage(v), maxDiagsPerClass)
	}
	r.sortDiags(v.g)
	return r, nil
}
