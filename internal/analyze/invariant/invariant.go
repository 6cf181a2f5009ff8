// Package invariant holds the pipeline invariant checks shared by the
// scheduler's self-validation (sched.Validate) and the static plan
// analyzer (internal/analyze). Keeping them in one place guarantees the
// two consumers cannot drift apart: a schedule the scheduler accepts is
// exactly a schedule the analyzer's pipeline lints accept.
//
// The package sits below both consumers in the import graph — it knows
// about the dependency DAG but not about pipelines, kernels or
// diagnostics — so sched can wrap its findings into errors and analyze
// into typed diagnostics.
package invariant

import (
	"fmt"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
)

// Finding is one violated pipeline invariant.
type Finding struct {
	// Code classifies the invariant: "double-schedule", "coverage",
	// "link-window" or "dep-order".
	Code string
	// Message is the human-readable description (stable across runs).
	Message string
	// Tasks lists the tasks involved, primary first.
	Tasks []ir.TaskID
}

func (f Finding) String() string { return f.Message }

// Err converts the first finding into an error, nil when the list is
// empty. The error text is the finding's message, so callers that wrap
// it keep the historical sched.Validate formatting.
func Err(fs []Finding) error {
	if len(fs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", fs[0].Message)
}

// CheckPipeline verifies the task-pipeline invariants of §4.3 against
// the dependency graph:
//
//  1. every task is scheduled exactly once (no duplicates, full
//     coverage);
//  2. no sub-pipeline loads a communication link beyond its saturation
//     window (Fig. 4) — the communication-dependency rule;
//  3. every data dependency occupies an earlier global position than
//     its dependent.
//
// subs is the per-sub-pipeline task partition in schedule order; taskPos
// is the dense global position of every task (indexed by TaskID). It
// returns every violation rather than stopping at the first, in
// deterministic order.
func CheckPipeline(g *dag.Graph, subs [][]ir.TaskID, taskPos []int) []Finding {
	var out []Finding
	seen := make([]bool, len(g.Tasks))
	count := 0
	// load[l] counts link l's tasks in sub-pipeline load[l].sub; a count
	// stamped with an earlier sub restarts at zero, so one dense slice
	// serves every sub without clearing.
	type linkLoad struct{ sub, n int }
	load := make([]linkLoad, len(g.LinkWindows))
	for i, sub := range subs {
		for _, t := range sub {
			if int(t) < 0 || int(t) >= len(g.Tasks) {
				out = append(out, Finding{
					Code:    "coverage",
					Message: fmt.Sprintf("sub-pipeline %d references unknown task %d", i, t),
					Tasks:   []ir.TaskID{t},
				})
				continue
			}
			if seen[t] {
				out = append(out, Finding{
					Code:    "double-schedule",
					Message: fmt.Sprintf("task %d scheduled twice", t),
					Tasks:   []ir.TaskID{t},
				})
				continue
			}
			seen[t] = true
			count++
			for _, l := range g.Links[t] {
				if load[l].sub != i {
					load[l] = linkLoad{sub: i}
				}
				load[l].n++
				if load[l].n > g.LinkWindows[l] {
					out = append(out, Finding{
						Code: "link-window",
						Message: fmt.Sprintf(
							"sub-pipeline %d: link %s holds %d tasks, window is %d (communication dependency violated)",
							i, g.Topo.DescribeResource(l), load[l].n, g.LinkWindows[l]),
						Tasks: []ir.TaskID{t},
					})
				}
			}
		}
	}
	if count != len(g.Tasks) {
		out = append(out, Finding{
			Code:    "coverage",
			Message: fmt.Sprintf("pipeline covers %d of %d tasks", count, len(g.Tasks)),
		})
	}
	for t := range g.Tasks {
		for _, dep := range g.Deps[t] {
			if !validPos(taskPos, dep) || !validPos(taskPos, ir.TaskID(t)) {
				continue // coverage finding above already reports the hole
			}
			if taskPos[dep] >= taskPos[t] {
				out = append(out, Finding{
					Code: "dep-order",
					Message: fmt.Sprintf(
						"task %d (pos %d) scheduled before its dependency %d (pos %d)",
						t, taskPos[t], dep, taskPos[dep]),
					Tasks: []ir.TaskID{ir.TaskID(t), dep},
				})
			}
		}
	}
	return out
}

func validPos(taskPos []int, t ir.TaskID) bool {
	return int(t) >= 0 && int(t) < len(taskPos) && taskPos[t] >= 0
}
