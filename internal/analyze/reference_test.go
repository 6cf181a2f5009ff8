package analyze

import (
	"fmt"
	"slices"
	"strings"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
)

// The reference deadlock pass materializes the wait-for graph the plain
// way: one node record per rendezvous holding both sides' TB,
// instruction and micro-batch, every edge stored in a CSR built by
// append, and a stranded flag per node set while the edges are built.
// The pass lists each node's edges on demand instead and must
// reproduce this graph and its diagnostics exactly.

// DeadlockMatchesReference checks the deadlock pass on k against the
// reference: every node's wait list and stranded flag, then the
// diagnostics (code, severity, message, tasks, order) and the verdict.
func DeadlockMatchesReference(k *kernel.Kernel, nMB int) error {
	v := newPlanView(k)
	ref, w := refBuildWaitFor(v, nMB), buildWaitFor(v, nMB)
	if len(ref.nodes) != len(w.task) {
		return fmt.Errorf("%d nodes, reference has %d", len(w.task), len(ref.nodes))
	}
	var buf []int32
	for i := range ref.nodes {
		var stranded bool
		buf, stranded = w.waits(buf[:0], int32(i))
		if want := ref.waits(int32(i)); !slices.Equal(buf, want) {
			return fmt.Errorf("node %d (%s) waits on %v, reference %v", i, w.describeNode(int32(i)), buf, want)
		}
		if stranded != ref.stranded[i] {
			return fmt.Errorf("node %d (%s): stranded %v, reference %v", i, w.describeNode(int32(i)), stranded, ref.stranded[i])
		}
		if got, want := w.describeNode(int32(i)), ref.describeNode(int32(i)); got != want {
			return fmt.Errorf("node %d renders %q, reference %q", i, got, want)
		}
	}
	got, free := checkDeadlock(w)
	want, refFree := refCheckDeadlock(ref)
	if free != refFree {
		return fmt.Errorf("deadlock-free %v, reference %v", free, refFree)
	}
	if !slices.EqualFunc(got, want, func(a, b Diag) bool {
		return a.Code == b.Code && a.Severity == b.Severity && a.Message == b.Message && slices.Equal(a.Tasks, b.Tasks)
	}) {
		return fmt.Errorf("diagnostics differ\ngot  %v\nwant %v", got, want)
	}
	return nil
}

// refNode is one node of the wait-for graph: a rendezvous meeting, a
// lone (unmatched) primitive invocation, or a barrier pseudo-node.
type refNode struct {
	task ir.TaskID // -1 for barrier nodes
	// sendK/recvK are the TB instruction indices of the two sides;
	// -1 when that side is missing (unmatched invocation).
	sendTB, sendK  int32
	recvTB, recvK  int32
	sendMB, recvMB int32
	mb             int32 // barrier nodes: which micro-batch they release
}

type refGraph struct {
	v     *planView
	nMB   int
	nodes []refNode
	// out is CSR: node n waits for out[outStart[n]:outStart[n+1]].
	out      []int32
	outStart []int32
	// byInstr is CSR: byInstr[instrStart[tb]+k] is the node of TB tb's
	// instruction k.
	byInstr    []int32
	instrStart []int32
	// doneAt[t*nMB+mb] is the node whose completion closes done[t][mb],
	// -1 when nothing ever signals it.
	doneAt []int32
	// stranded marks nodes with a missing rendezvous side.
	stranded []bool
}

// waits returns the nodes n waits for.
func (w *refGraph) waits(n int32) []int32 { return w.out[w.outStart[n]:w.outStart[n+1]] }

// refBuildWaitFor constructs the graph; it never fails, whatever the
// kernel's state.
func refBuildWaitFor(v *planView, nMB int) *refGraph {
	w := &refGraph{v: v, nMB: nMB}
	k := v.k

	w.instrStart = make([]int32, len(k.TBs)+1)
	for tbi, tb := range k.TBs {
		w.instrStart[tbi+1] = w.instrStart[tbi] + int32(len(tb.Slots)*nMB)
	}
	w.byInstr = make([]int32, w.instrStart[len(k.TBs)])
	for i := range w.byInstr {
		w.byInstr[i] = -1
	}

	// Pair send and recv invocations per task. The channel matches
	// operations in arrival order; with each side's occurrences visited
	// in (TB, slot, micro-batch) canonical order, the j-th send
	// invocation meets the j-th recv invocation. Valid kernels have one
	// occurrence per side, making the pairing exact (j == micro-batch);
	// for mutants with duplicated slots it is one admissible arrival
	// order, which is all a may-deadlock analysis needs. The j-th
	// invocation is micro-batch j%nMB of occurrence j/nMB, whose
	// instruction index follows from the TB's loop order (kernel.MBOrder).
	invocation := func(occs []occ, j int) (tb, ki, mb int32) {
		o := occs[j/nMB]
		mb = int32(j % nMB)
		if prog := k.TBs[o.tb]; prog.Order != kernel.TaskMajor {
			return o.tb, mb*int32(len(prog.Slots)) + o.slot, mb
		}
		return o.tb, o.slot*int32(nMB) + mb, mb
	}
	w.doneAt = make([]int32, len(v.g.Tasks)*nMB)
	for i := range w.doneAt {
		w.doneAt[i] = -1
	}
	nNodes := nMB // room for the barrier nodes
	for t := range v.g.Tasks {
		nNodes += max(len(v.sendOcc(t)), len(v.recvOcc(t))) * nMB
	}
	w.nodes, w.stranded = make([]refNode, 0, nNodes), make([]bool, 0, nNodes)
	for t := range v.g.Tasks {
		nSend, nRecv := len(v.sendOcc(t))*nMB, len(v.recvOcc(t))*nMB
		for j := 0; j < max(nSend, nRecv); j++ {
			node := refNode{task: ir.TaskID(t), sendTB: -1, sendK: -1, recvTB: -1, recvK: -1}
			if j < nSend {
				node.sendTB, node.sendK, node.sendMB = invocation(v.sendOcc(t), j)
			}
			if j < nRecv {
				node.recvTB, node.recvK, node.recvMB = invocation(v.recvOcc(t), j)
			}
			idx := int32(len(w.nodes))
			w.nodes = append(w.nodes, node)
			w.stranded = append(w.stranded, node.sendK < 0 || node.recvK < 0)
			if node.sendK >= 0 {
				w.byInstr[w.instrStart[node.sendTB]+node.sendK] = idx
			}
			if node.recvK >= 0 {
				w.byInstr[w.instrStart[node.recvTB]+node.recvK] = idx
				// The recv side closes done[t][mb] — but only if the
				// rendezvous actually completes (both sides present).
				if node.sendK >= 0 && int(node.recvMB) < nMB {
					w.doneAt[t*nMB+int(node.recvMB)] = idx
				}
			}
		}
	}

	// Barrier pseudo-nodes for lazy (MBBarrier) kernels: node B(mb)
	// releases micro-batch mb and waits on every task's mb-1.
	barrier := make([]int32, nMB)
	for i := range barrier {
		barrier[i] = -1
	}
	if k.MBBarrier {
		for mb := 1; mb < nMB; mb++ {
			idx := int32(len(w.nodes))
			w.nodes = append(w.nodes, refNode{task: -1, sendK: -1, recvK: -1, mb: int32(mb)})
			w.stranded = append(w.stranded, false)
			barrier[mb] = idx
		}
	}

	// Nodes are visited in index order, so each node's edges are one
	// contiguous run of out; a node waits on about six others.
	w.out = make([]int32, 0, 6*len(w.nodes))
	w.outStart = make([]int32, len(w.nodes)+1)
	addEdge := func(from, to int32) {
		if to >= 0 && to != from {
			w.out = append(w.out, to)
		}
	}
	// gates adds the blockers one side of node n observes before its
	// channel operation: program order, data deps, link preds, barrier.
	gates := func(n, tb, ki, mb32 int32, t ir.TaskID) {
		mb := int(mb32)
		if ki > 0 {
			addEdge(n, w.byInstr[w.instrStart[tb]+ki-1])
		}
		for _, d := range v.g.Deps.Row(int(t)) {
			if int(d) < 0 || int(d) >= len(v.g.Tasks) || mb >= nMB {
				continue
			}
			addEdge(n, w.doneAt[int(d)*nMB+mb])
			if w.doneAt[int(d)*nMB+mb] < 0 {
				w.stranded[n] = true
			}
		}
		for _, p := range v.linkPreds(int(t)) {
			if int(p) < 0 || int(p) >= len(v.g.Tasks) {
				continue
			}
			addEdge(n, w.doneAt[int(p)*nMB+(nMB-1)])
			if w.doneAt[int(p)*nMB+(nMB-1)] < 0 {
				w.stranded[n] = true
			}
		}
		if mb > 0 && mb < nMB && barrier[mb] >= 0 {
			addEdge(n, barrier[mb])
		}
	}
	for i := range w.nodes {
		n := &w.nodes[i]
		if n.task < 0 { // barrier node: waits on every task's mb-1
			for t := range v.g.Tasks {
				addEdge(int32(i), w.doneAt[t*nMB+int(n.mb)-1])
			}
		}
		if n.sendK >= 0 {
			gates(int32(i), n.sendTB, n.sendK, n.sendMB, n.task)
		}
		if n.recvK >= 0 {
			gates(int32(i), n.recvTB, n.recvK, n.recvMB, n.task)
		}
		w.outStart[i+1] = int32(len(w.out))
	}
	return w
}

// describeNode renders one wait-for node for a cycle path.
func (w *refGraph) describeNode(i int32) string {
	n := w.nodes[i]
	if n.task < 0 {
		return fmt.Sprintf("barrier(mb=%d)", n.mb)
	}
	d := w.v.k.DescribeTask(n.task)
	switch {
	case n.sendK >= 0 && n.recvK >= 0:
		return fmt.Sprintf("%s send@TB%d/recv@TB%d mb=%d", d,
			w.v.k.TBs[n.sendTB].ID, w.v.k.TBs[n.recvTB].ID, n.recvMB)
	case n.sendK >= 0:
		return fmt.Sprintf("%s send@TB%d mb=%d (no matching recv)", d, w.v.k.TBs[n.sendTB].ID, n.sendMB)
	default:
		return fmt.Sprintf("%s recv@TB%d mb=%d (no matching send)", d, w.v.k.TBs[n.recvTB].ID, n.recvMB)
	}
}

// refCheckDeadlock is the deadlock pass over the materialized graph.
func refCheckDeadlock(w *refGraph) (ds []Diag, free bool) {
	free = true

	// Stranded invocations: a rendezvous side or semaphore nobody ever
	// signals. The TB hosting it blocks forever.
	for i, n := range w.nodes {
		if !w.stranded[i] || n.task < 0 {
			continue
		}
		free = false
		// One diagnostic per (task, side) suffices; skip later micro-batches.
		if (n.sendK >= 0 && n.sendMB > 0) || (n.recvK >= 0 && n.recvMB > 0) {
			continue
		}
		ds = append(ds, Diag{Code: "deadlock", Severity: SevError,
			Message: fmt.Sprintf("stranded invocation: %s blocks its TB forever", w.describeNode(int32(i))),
			Tasks:   []ir.TaskID{n.task}})
	}

	// Cycle detection: iterative DFS with three colors; on a back edge,
	// the grey stack slice from the target onward is the cycle.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, len(w.nodes))
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	onStack := make([]int32, 0, 64)
	for start := range w.nodes {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{int32(start), 0})
		color[start] = grey
		onStack = append(onStack[:0], int32(start))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if out := w.waits(f.node); f.next < len(out) {
				to := out[f.next]
				f.next++
				switch color[to] {
				case white:
					color[to] = grey
					stack = append(stack, frame{to, 0})
					onStack = append(onStack, to)
				case grey:
					free = false
					// Extract the cycle: suffix of onStack from `to`.
					var cyc []int32
					for j := len(onStack) - 1; j >= 0; j-- {
						cyc = append(cyc, onStack[j])
						if onStack[j] == to {
							break
						}
					}
					// Reverse into wait order and render the path.
					var b strings.Builder
					var tasks []ir.TaskID
					for j := len(cyc) - 1; j >= 0; j-- {
						if b.Len() > 0 {
							b.WriteString(" → ")
						}
						b.WriteString(w.describeNode(cyc[j]))
						if t := w.nodes[cyc[j]].task; t >= 0 {
							tasks = append(tasks, t)
						}
					}
					b.WriteString(" → (back to start)")
					ds = append(ds, Diag{Code: "deadlock", Severity: SevError,
						Message: fmt.Sprintf("wait-for cycle: %s", b.String()),
						Tasks:   tasks})
					// One cycle per DFS tree keeps reports readable; the
					// plan is already condemned.
					color[to] = black
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				onStack = onStack[:len(onStack)-1]
			}
		}
	}
	return ds, free
}
