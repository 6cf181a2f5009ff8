package analyze

import (
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
)

// occ locates one primitive occurrence inside the kernel: TB index (into
// Kernel.TBs) and slot. A corrupt plan's TB IDs need not equal their
// index — kernel.CheckStructure reports that — so passes never index by
// ID.
type occ struct {
	tb, slot int32
}

// planView indexes a kernel for the analysis passes. It is built once
// per Plan call and never mutates the kernel. All indexing tolerates
// corrupt plans: out-of-range task IDs simply do not appear in the
// occurrence tables.
type planView struct {
	k *kernel.Kernel
	g *dag.Graph

	// occs lists the occurrences of every task's send and recv
	// primitives across all TBs, row by row: row t holds task t's send
	// occurrences and row n+t its recv ones, each in (TB index, slot)
	// order, and row r is occs[off[r]:off[r+1]]. A valid kernel has
	// exactly one of each; mutants may have zero or several.
	occs []occ
	off  []int32

	// preds is the kernel's link predecessor table when it is a
	// well-formed CSR of one row per task, and empty otherwise:
	// kernel.CheckStructure reports a corrupt table.
	preds dag.CSR
}

func newPlanView(k *kernel.Kernel) *planView {
	n := len(k.Graph.Tasks)
	row := func(prim ir.Primitive) int {
		switch t := int(prim.Task); {
		case t < 0 || t >= n:
			return -1
		case prim.Kind == ir.PrimSend:
			return t
		default:
			return n + t
		}
	}
	// Count each row into off[r+1] and sum, so off[r] is row r's start;
	// fill with off[r] as row r's cursor, which leaves it at row r+1's
	// start; then shift the starts back into place.
	off := make([]int32, 2*n+1)
	for _, tb := range k.TBs {
		for _, prim := range tb.Slots {
			if r := row(prim); r >= 0 {
				off[r+1]++
			}
		}
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	occs := make([]occ, off[2*n])
	for tbi, tb := range k.TBs {
		for s, prim := range tb.Slots {
			if r := row(prim); r >= 0 {
				occs[off[r]] = occ{int32(tbi), int32(s)}
				off[r]++
			}
		}
	}
	copy(off[1:], off)
	off[0] = 0
	v := &planView{k: k, g: k.Graph, occs: occs, off: off}
	if k.LinkPreds.Check(n) == nil {
		v.preds = k.LinkPreds
	}
	return v
}

// linkPreds lists task t's link predecessors, none for a task the table
// does not cover.
func (v *planView) linkPreds(t int) []ir.TaskID {
	if t < 0 || t >= v.preds.Len() {
		return nil
	}
	return v.preds.Row(t)
}

// sendOcc and recvOcc list task t's send and recv occurrences.
func (v *planView) sendOcc(t int) []occ { return v.occs[v.off[t]:v.off[t+1]] }
func (v *planView) recvOcc(t int) []occ {
	n := len(v.g.Tasks)
	return v.occs[v.off[n+t]:v.off[n+t+1]]
}

// subTasks reconstructs the scheduler's sub-pipeline partition from the
// kernel's echoed TaskSub/TaskPos tables. Baseline kernels carry no
// schedule echo, and mutants may corrupt it; nil means the pipeline
// lints cannot run.
func (v *planView) subTasks() [][]ir.TaskID {
	k := v.k
	if len(k.TaskSub) != len(v.g.Tasks) || len(k.TaskPos) != len(v.g.Tasks) {
		return nil
	}
	nSubs := 0
	for _, s := range k.TaskSub {
		if s+1 > nSubs {
			nSubs = s + 1
		}
	}
	if nSubs == 0 {
		return nil
	}
	subs := make([][]ir.TaskID, nSubs)
	// Tasks enter their sub in global position order, matching how the
	// scheduler emitted them. Order within a sub follows TaskPos; an
	// insertion sort keeps the common already-sorted case linear.
	for t, s := range k.TaskSub {
		if s < 0 {
			continue // unscheduled: the invariant coverage check reports it
		}
		subs[s] = append(subs[s], ir.TaskID(t))
	}
	for _, sub := range subs {
		for i := 1; i < len(sub); i++ {
			for j := i; j > 0 && k.TaskPos[sub[j]] < k.TaskPos[sub[j-1]]; j-- {
				sub[j], sub[j-1] = sub[j-1], sub[j]
			}
		}
	}
	return subs
}

// pipelineOrder lists the kernel's tasks by their echoed pipeline
// position (TaskPos), stably, so a corrupt echo still yields an order.
// It is nil when the kernel carries no echo (baseline kernels) or one of
// the wrong length.
func pipelineOrder(k *kernel.Kernel) []ir.TaskID {
	n := len(k.Graph.Tasks)
	if n == 0 || len(k.TaskPos) != n {
		return nil
	}
	byPos := make([]int32, n)
	for t := range byPos {
		byPos[t] = int32(t)
	}
	ir.RadixSort(byPos, func(t int32) int { return k.TaskPos[t] })
	order := make([]ir.TaskID, n)
	for i, t := range byPos {
		order[i] = ir.TaskID(t)
	}
	return order
}
