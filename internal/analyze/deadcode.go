package analyze

import (
	"fmt"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/verify"
)

// The liveness pass finds primitives the collective does not need. A
// task is LIVE when its delivery can still matter to the operator's
// postcondition:
//
//   - seed: every task whose destination location the operator
//     obligates (verify.Obligated);
//   - closure: everything a live task depends on (the dependency DAG
//     already encodes which earlier deliveries feed a transfer).
//
// The closure over-approximates liveness — a task is only reported
// when NO chain of dependencies connects it to an obligated location —
// so every "dead-primitive" diagnostic is a true positive. A second
// rule catches the shadowed-copy case reachability cannot: a plain
// recv whose destination is overwritten later with no intervening
// reader delivered a value nobody observed.
//
// Process-group algorithms (Group) and repair plans (Initial) judge
// correctness against an embedded or degraded postcondition; the pass
// steps aside rather than guess it.
func checkDeadCode(v *planView, opts Options) []Diag {
	g := v.g
	algo := g.Algo
	if algo.Group != nil || algo.Initial != nil {
		return []Diag{{Code: "dead-primitive", Severity: SevInfo,
			Message: "liveness skipped: plan has a group or degraded precondition"}}
	}

	live := make([]bool, len(g.Tasks))
	var stack []ir.TaskID
	for t, task := range g.Tasks {
		if verify.Obligated(algo.Op, task.Dst, task.Chunk, algo.NRanks) {
			live[t] = true
			stack = append(stack, ir.TaskID(t))
		}
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range g.Deps.Row(int(t)) {
			if int(d) >= 0 && int(d) < len(live) && !live[d] {
				live[d] = true
				stack = append(stack, d)
			}
		}
	}
	var ds []Diag
	for t := range g.Tasks {
		if !live[t] {
			ds = append(ds, Diag{Code: "dead-primitive", Severity: SevWarn,
				Message: fmt.Sprintf("%s: no dependency chain reaches a postcondition-obligated location",
					v.k.DescribeTask(ir.TaskID(t))),
				Tasks: []ir.TaskID{ir.TaskID(t)}})
		}
	}

	// Shadowed copies, judged in pipeline order when the kernel echoes
	// one (fall back to step order otherwise).
	pos := func(t ir.TaskID) int {
		if len(v.k.TaskPos) == len(g.Tasks) && v.k.TaskPos[t] >= 0 {
			return v.k.TaskPos[t]
		}
		return int(g.Tasks[t].Step)*len(g.Tasks) + int(t)
	}
	// Writers grouped by destination location in (rank, chunk) order,
	// each location's in pipeline order.
	byLoc := make([]int32, len(g.Tasks))
	for t := range byLoc {
		byLoc[t] = int32(t)
	}
	ir.RadixSort(byLoc,
		func(t int32) int { return int(g.Tasks[t].Dst) },
		func(t int32) int { return int(g.Tasks[t].Chunk) },
		func(t int32) int { return pos(ir.TaskID(t)) })
	for lo, hi := 0, 0; lo < len(byLoc); lo = hi {
		l := g.Tasks[byLoc[lo]].Transfer
		for hi = lo + 1; hi < len(byLoc) && g.Tasks[byLoc[hi]].Dst == l.Dst && g.Tasks[byLoc[hi]].Chunk == l.Chunk; hi++ {
		}
		writers := byLoc[lo:hi]
		for i := range writers {
			u := ir.TaskID(writers[i])
			if g.Tasks[u].Type != ir.CommRecv || i == len(writers)-1 {
				continue // reductions merge; the final writer survives
			}
			w := ir.TaskID(writers[i+1])
			if g.Tasks[w].Type == ir.CommRecvReduceCopy {
				continue // the overwriter merges u's value into its own
			}
			readBetween := false
			for t, task := range g.Tasks {
				if task.Src == l.Dst && task.Chunk == l.Chunk &&
					pos(ir.TaskID(t)) > pos(u) && pos(ir.TaskID(t)) < pos(w) {
					readBetween = true
					break
				}
			}
			if !readBetween {
				ds = append(ds, Diag{Code: "dead-primitive", Severity: SevWarn,
					Message: fmt.Sprintf("%s: delivered value is overwritten by %s with no reader in between",
						v.k.DescribeTask(u), v.k.DescribeTask(w)),
					Tasks: []ir.TaskID{u, w}})
			}
		}
	}
	return ds
}

// checkCoverage cross-checks the plan against the symbolic verifier:
// it replays, in dependency order, exactly the transfers the KERNEL
// will execute (tasks whose send and recv primitives are both present
// and unaliased — what a mutant dropped, the replay drops too) and
// proves the operator's postcondition over the resulting contribution
// sets — the healthy one, or a process group's view
// (verify.ExpectFor). Any gap the runtime would produce shows up here
// without running anything, at any scale.
func checkCoverage(v *planView) []Diag {
	g := v.g
	algo := g.Algo
	expect, err := verify.ExpectFor(algo)
	if err != nil {
		return []Diag{{Code: "coverage", Severity: SevError, Message: err.Error()}}
	}
	executes := func(t ir.TaskID) bool {
		return len(v.sendOcc(int(t))) > 0 && len(v.recvOcc(int(t))) > 0
	}
	order, err := g.TopoOrder()
	if err != nil {
		return []Diag{{Code: "coverage", Severity: SevError,
			Message: fmt.Sprintf("dependency graph has no topological order: %v", err)}}
	}
	var trace []ir.Transfer
	for _, t := range order {
		if int(t) < 0 || int(t) >= len(g.Tasks) || !executes(t) {
			continue
		}
		trace = append(trace, g.Tasks[t].Transfer)
	}
	h, err := verify.Replay(algo.Op, algo.NRanks, algo.NChunks, algo.Initial, trace)
	if err != nil {
		return []Diag{{Code: "coverage", Severity: SevError,
			Message: fmt.Sprintf("symbolic replay rejects the plan: %v", err)}}
	}
	if err := h.Postcondition(expect); err != nil {
		return []Diag{{Code: "coverage", Severity: SevError,
			Message: fmt.Sprintf("postcondition not covered: %v", err)}}
	}
	return nil
}
