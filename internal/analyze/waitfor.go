package analyze

import (
	"fmt"
	"strings"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
)

// The deadlock pass models a kernel's execution exactly — the semantics
// the simulator implements — then asks a graph question instead of
// running it.
//
// Every TB is a sequential thread; a task's send and recv invocations
// meet at a rendezvous, and the recv side signals a per-(task,
// micro-batch) done flag that data dependencies (per micro-batch) and
// link-window predecessors (full drain) wait on. A matched send/recv
// invocation pair therefore completes at a single meeting point: the
// pair is modeled as ONE node
// whose wait-for edges are the union of both sides' blockers —
//
//   - the previous instruction of the send TB and of the recv TB
//     (program order: a TB cannot reach the meeting before finishing
//     everything ahead of it);
//   - for each data dependency d of the task, the rendezvous node that
//     closes done[d][mb] (each side gated at its own micro-batch);
//   - for each link predecessor p, the node that closes p's LAST
//     micro-batch (full drain);
//   - under MBBarrier, a barrier pseudo-node per micro-batch that in
//     turn waits on every task's previous micro-batch.
//
// The plan can hang iff this graph has a cycle (reported with the full
// primitive path) or an invocation waits on a completion that no
// primitive ever signals (reported as a stranded invocation). Analysis
// unrolls analysisMB micro-batches: two suffice to expose every
// cross-micro-batch coupling the task-major loop can create, because
// the wait pattern of micro-batch i>1 is isomorphic to i=1.

// wfGraph is the wait-for graph, held implicitly: nodes are numbered
// task by task, and each node's edges are listed on demand (waits) from
// the plan view, the dependency graph and the kernel, so nothing is
// stored per edge.
//
// Task t's rendezvous nodes are first[t] … first[t+1]−1: node
// first[t]+j meets the j-th send invocation with the j-th recv
// invocation (either side missing when the task has fewer of it). The
// j-th invocation of a side is micro-batch j%nMB of its occurrence
// j/nMB, so both sides of a node share micro-batch j%nMB. Under
// MBBarrier the barrier nodes B(1) … B(nMB−1) follow the last task's.
type wfGraph struct {
	v   *planView
	nMB int
	// first has one entry per task plus one: the first node of each
	// task, then the first barrier node.
	first []int32
	// task[i] is node i's task, -1 for a barrier node.
	task []int32
	// done[t]+mb is the node whose completion closes done[t][mb]: the
	// last of task t's rendezvous at micro-batch mb with both sides
	// present (a recv closes the semaphore only if its rendezvous
	// completes). done[t] is -1 when nothing ever signals it.
	done []int32
	// slotNode[slotStart[tb]+s] is the node of TB tb's slot s at
	// micro-batch 0 (micro-batch mb's is that plus mb), -1 for a slot
	// of an unknown task.
	slotNode, slotStart []int32
	// mbMajor[tb] marks a TB whose loop order is not task-major.
	mbMajor []bool
}

// buildWaitFor numbers the graph's nodes; it never fails, whatever the
// kernel's state.
func buildWaitFor(v *planView, nMB int) *wfGraph {
	k, n := v.k, len(v.g.Tasks)
	w := &wfGraph{v: v, nMB: nMB, first: make([]int32, n+1), done: make([]int32, n)}
	for t := 0; t < n; t++ {
		nSend, nRecv := len(v.sendOcc(t)), len(v.recvOcc(t))
		w.first[t+1] = w.first[t] + int32(max(nSend, nRecv)*nMB)
		w.done[t] = -1
		if m := min(nSend, nRecv); m > 0 {
			w.done[t] = w.first[t] + int32((m-1)*nMB)
		}
	}
	nBarrier := 0
	if k.MBBarrier {
		nBarrier = nMB - 1
	}
	w.task = make([]int32, int(w.first[n])+nBarrier)
	for t := 0; t < n; t++ {
		for i := w.first[t]; i < w.first[t+1]; i++ {
			w.task[i] = int32(t)
		}
	}
	for i := w.first[n]; i < int32(len(w.task)); i++ {
		w.task[i] = -1
	}

	w.slotStart, w.mbMajor = make([]int32, len(k.TBs)+1), make([]bool, len(k.TBs))
	for tbi, tb := range k.TBs {
		w.slotStart[tbi+1] = w.slotStart[tbi] + int32(len(tb.Slots))
		w.mbMajor[tbi] = tb.Order != kernel.TaskMajor
	}
	w.slotNode = make([]int32, w.slotStart[len(k.TBs)])
	for i := range w.slotNode {
		w.slotNode[i] = -1
	}
	for t := 0; t < n; t++ {
		for _, occs := range [2][]occ{v.sendOcc(t), v.recvOcc(t)} {
			for o, oc := range occs {
				w.slotNode[w.slotStart[oc.tb]+oc.slot] = w.first[t] + int32(o*nMB)
			}
		}
	}
	return w
}

// mb returns the micro-batch of node i's invocations; for a barrier
// node, the micro-batch it releases.
func (w *wfGraph) mb(i int32) int {
	if t := w.task[i]; t >= 0 {
		return int(i-w.first[t]) % w.nMB
	}
	return int(i-w.first[len(w.first)-1]) + 1
}

// side returns the occurrence that hosts node i's send invocation (its
// recv invocation when recv is set); ok is false when the side is
// missing or i is a barrier node.
func (w *wfGraph) side(i int32, recv bool) (o occ, ok bool) {
	t := w.task[i]
	if t < 0 {
		return occ{}, false
	}
	r := t
	if recv {
		r += int32(len(w.first) - 1)
	}
	at := w.v.off[r] + (i-w.first[t])/int32(w.nMB)
	if at >= w.v.off[r+1] {
		return occ{}, false
	}
	return w.v.occs[at], true
}

// doneAt returns the node whose completion closes done[t][mb], -1 when
// nothing ever signals it.
func (w *wfGraph) doneAt(t, mb int) int32 {
	if w.done[t] < 0 {
		return -1
	}
	return w.done[t] + int32(mb)
}

// prevNode returns the node of the instruction its TB runs before
// occurrence o's invocation at micro-batch mb, under the TB's loop
// order (see TBProgram.Instr); -1 for the TB's first instruction or a
// slot of an unknown task.
func (w *wfGraph) prevNode(o occ, mb int32) int32 {
	slot, lo := o.slot, w.slotStart[o.tb]
	if !w.mbMajor[o.tb] {
		if mb--; mb < 0 {
			slot, mb = slot-1, int32(w.nMB-1)
		}
	} else if slot--; slot < 0 {
		slot, mb = w.slotStart[o.tb+1]-lo-1, mb-1
	}
	if slot < 0 || mb < 0 {
		return -1
	}
	if base := w.slotNode[lo+slot]; base >= 0 {
		return base + mb
	}
	return -1
}

// waits appends to dst the nodes node i waits for, in a fixed order:
// a barrier node waits on every task's previous micro-batch; a
// rendezvous waits on its send side's blockers and then its recv
// side's, each side observing, before its channel operation, program
// order (the TB's previous instruction), its data dependencies at its
// own micro-batch, its link predecessors' last micro-batch (full drain)
// and, under MBBarrier, its micro-batch's barrier. Self-waits and
// completions nobody signals are left out. stranded reports an
// invocation that blocks forever: a missing rendezvous side, or a
// dependency or link predecessor that is never signalled.
func (w *wfGraph) waits(dst []int32, i int32) (_ []int32, stranded bool) {
	add := func(to int32) {
		if to >= 0 && to != i {
			dst = append(dst, to)
		}
	}
	g, k, mb := w.v.g, w.v.k, w.mb(i)
	t := w.task[i]
	if t < 0 {
		for d := range g.Tasks {
			add(w.doneAt(d, mb-1))
		}
		return dst, false
	}
	preds := w.v.linkPreds(int(t))
	sides := 0
	for _, recv := range [2]bool{false, true} {
		o, ok := w.side(i, recv)
		if !ok {
			continue
		}
		sides++
		add(w.prevNode(o, int32(mb)))
		for _, d := range g.Deps.Row(int(t)) {
			if int(d) < 0 || int(d) >= len(g.Tasks) {
				continue
			}
			done := w.doneAt(int(d), mb)
			add(done)
			stranded = stranded || done < 0
		}
		for _, p := range preds {
			if int(p) < 0 || int(p) >= len(g.Tasks) {
				continue
			}
			done := w.doneAt(int(p), w.nMB-1)
			add(done)
			stranded = stranded || done < 0
		}
		if mb > 0 && k.MBBarrier {
			add(w.first[len(w.first)-1] + int32(mb-1))
		}
	}
	return dst, stranded || sides < 2
}

// describeNode renders one wait-for node for a cycle path.
func (w *wfGraph) describeNode(i int32) string {
	t := w.task[i]
	if t < 0 {
		return fmt.Sprintf("barrier(mb=%d)", w.mb(i))
	}
	d, tbs := w.v.k.DescribeTask(ir.TaskID(t)), w.v.k.TBs
	send, hasSend := w.side(i, false)
	recv, hasRecv := w.side(i, true)
	switch {
	case hasSend && hasRecv:
		return fmt.Sprintf("%s send@TB%d/recv@TB%d mb=%d", d, tbs[send.tb].ID, tbs[recv.tb].ID, w.mb(i))
	case hasSend:
		return fmt.Sprintf("%s send@TB%d mb=%d (no matching recv)", d, tbs[send.tb].ID, w.mb(i))
	default:
		return fmt.Sprintf("%s recv@TB%d mb=%d (no matching send)", d, tbs[recv.tb].ID, w.mb(i))
	}
}

// checkDeadlock runs the pass; free reports whether the wait-for graph
// is acyclic with no stranded invocations (the precondition for the
// happens-before passes).
func checkDeadlock(w *wfGraph) (ds []Diag, free bool) {
	free = true
	n := len(w.task)

	// Cycle detection: iterative DFS with three colors; on a back edge,
	// the grey stack slice from the target onward is the cycle. A node's
	// waits are listed once, when it turns grey, onto a shared stack:
	// frame f's are waits[f.lo:] less its children's, f.next the next
	// to follow. Listing them also finds the stranded nodes.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, n)
	stranded := make([]bool, n)
	type frame struct{ node, lo, next int32 }
	var stack []frame
	var waits []int32
	push := func(i int32) {
		color[i] = grey
		lo := int32(len(waits))
		waits, stranded[i] = w.waits(waits, i)
		stack = append(stack, frame{i, lo, lo})
	}
	var cycles []Diag
	for start := range n {
		if color[start] != white {
			continue
		}
		push(int32(start))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == int32(len(waits)) {
				color[f.node] = black
				waits = waits[:f.lo]
				stack = stack[:len(stack)-1]
				continue
			}
			to := waits[f.next]
			f.next++
			switch color[to] {
			case white:
				push(to)
			case grey:
				free = false
				// The cycle is the stack from `to` onward, in wait order.
				from := len(stack) - 1
				for stack[from].node != to {
					from--
				}
				var b strings.Builder
				var tasks []ir.TaskID
				for _, c := range stack[from:] {
					if b.Len() > 0 {
						b.WriteString(" → ")
					}
					b.WriteString(w.describeNode(c.node))
					if t := w.task[c.node]; t >= 0 {
						tasks = append(tasks, ir.TaskID(t))
					}
				}
				b.WriteString(" → (back to start)")
				cycles = append(cycles, Diag{Code: "deadlock", Severity: SevError,
					Message: fmt.Sprintf("wait-for cycle: %s", b.String()),
					Tasks:   tasks})
				// One cycle per DFS tree keeps reports readable; the
				// plan is already condemned.
				color[to] = black
			}
		}
	}

	// Stranded invocations: a rendezvous side or semaphore nobody ever
	// signals. The TB hosting it blocks forever. They are reported
	// before the cycles, one diagnostic per (task, side): later
	// micro-batches are skipped.
	for i := range n {
		if !stranded[i] || w.task[i] < 0 {
			continue
		}
		free = false
		if w.mb(int32(i)) > 0 {
			continue
		}
		ds = append(ds, Diag{Code: "deadlock", Severity: SevError,
			Message: fmt.Sprintf("stranded invocation: %s blocks its TB forever", w.describeNode(int32(i))),
			Tasks:   []ir.TaskID{ir.TaskID(w.task[i])}})
	}
	return append(ds, cycles...), free
}
