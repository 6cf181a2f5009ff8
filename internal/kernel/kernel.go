// Package kernel defines the executable communication plan — the
// "lightweight kernel" of §4.5 — and its generation from a scheduled,
// TB-allocated pipeline.
//
// A kernel is organised along the paper's three dimensions: the rank
// dimension (which primitives each GPU executes), the TB dimension
// (which primitives each thread block executes), and the pipeline
// dimension (the per-TB slot order; each slot cycles through all of its
// micro-batch invocations). Baseline backends lower their
// connection-based TB layouts through the same Generate and run the
// result micro-batch major in interpreted mode, which charges the
// runtime-interpreter overhead per primitive invocation (§2.2, Fig. 3).
package kernel

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"github.com/resccl/resccl/internal/analyze/invariant"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
)

// ErrDeadlock reports that a kernel's execution stopped making
// progress: its thread blocks wait on each other in a cycle, or the
// run livelocks. The simulator's stall error wraps it, so one errors.Is
// test classifies a hang.
var ErrDeadlock = errors.New("deadlock")

// ExecMode selects how the runtime drives the plan.
type ExecMode int

// Execution modes.
const (
	// ModeDirect executes a generated kernel: no per-primitive parsing
	// cost, one-time load cost per thread block.
	ModeDirect ExecMode = iota
	// ModeInterpreted emulates existing backends' runtime interpreter:
	// every primitive invocation pays the profile's InterpCost.
	ModeInterpreted
)

func (m ExecMode) String() string {
	if m == ModeDirect {
		return "direct"
	}
	return "interpreted"
}

// MBOrder is the loop structure of a TB program.
type MBOrder int

// Micro-batch loop orders.
const (
	// TaskMajor iterates slots outermost: each slot (primitive) runs all
	// micro-batch invocations before the TB advances — ResCCL's
	// task-level execution (§3).
	TaskMajor MBOrder = iota
	// MBMajor iterates micro-batches outermost: the TB executes its
	// whole slot list for micro-batch 0, then 1, … — the lazy
	// algorithm-level (and per-stage) execution of existing backends.
	MBMajor
)

func (o MBOrder) String() string {
	if o == TaskMajor {
		return "task-major"
	}
	return "mb-major"
}

// TBProgram is the instruction stream of one thread block.
type TBProgram struct {
	ID    int
	Rank  ir.Rank
	Order MBOrder
	// Slots are the primitives in pipeline order. Each names its task in
	// the kernel's graph, which holds the transfer.
	Slots []ir.Primitive
	// Label describes the TB's role for traces ("0→1/send",
	// "stage2/3→7/recv", …).
	Label string
}

// Kernel is a complete executable plan for one collective on one
// topology.
type Kernel struct {
	Name  string
	Graph *dag.Graph
	Mode  ExecMode
	TBs   []*TBProgram

	// SendTB[t] / RecvTB[t] locate task t's two primitives.
	SendTB, RecvTB []int

	// LinkPreds row t lists tasks that must complete all micro-batch
	// invocations before task t may start: ResCCL's serialization of
	// communication-dependent tasks (§3). It has one row per task; the
	// rows are empty for baseline kernels, which instead contend on
	// links at runtime.
	LinkPreds dag.CSR

	// MBBarrier marks lazy algorithm-level execution (§2.1): the
	// backend launches one pass per micro-batch, so no invocation of
	// micro-batch i may start before every task has finished micro-batch
	// i−1. Stage-level and task-level kernels pipeline across
	// micro-batches and leave this false.
	MBBarrier bool

	// Protocol is the transport protocol tier the plan runs under
	// (LL/LL128/Simple). The zero value (ProtoAuto) simulates as Simple;
	// the tier is resolved before compilation, so cached plans never mix
	// tiers.
	Protocol ir.Protocol

	// TaskSub[t] / TaskPos[t] echo the schedule's sub-pipeline index and
	// global pipeline position of task t, so fault recovery can degrade
	// (serialize) one sub-pipeline without consulting the schedule. Nil
	// for baseline kernels, which have no sub-pipeline structure.
	TaskSub, TaskPos []int
}

// NTBs returns the number of thread blocks in the plan.
func (k *Kernel) NTBs() int { return len(k.TBs) }

// MaxTBsPerRank returns the largest per-rank TB count — the per-GPU SM
// footprint reported in Table 3.
func (k *Kernel) MaxTBsPerRank() int {
	if len(k.TBs) == 0 {
		return 0
	}
	lo, hi := k.TBs[0].Rank, k.TBs[0].Rank
	for _, tb := range k.TBs {
		lo, hi = min(lo, tb.Rank), max(hi, tb.Rank)
	}
	counts := make([]int, hi-lo+1)
	m := 0
	for _, tb := range k.TBs {
		counts[tb.Rank-lo]++
		m = max(m, counts[tb.Rank-lo])
	}
	return m
}

// Generate lowers a scheduled, TB-allocated pipeline into a direct
// kernel (Fig. 5(f)): per TB, the assigned primitives ordered by global
// pipeline position, task-major micro-batch looping, and
// link-predecessor serialization derived from the schedule. It is the
// one lowering of every backend: ResCCL lowers its HPDS pipeline and
// state-based assignment, and the baseline backends lower a
// connection-based assignment over tasks in ascending TaskID order,
// then switch the kernel to interpreted, micro-batch-major execution.
// The kernel shares the assignment's task tables (SendTB, RecvTB) and
// the pipeline's schedule echo and link predecessors rather than
// copying them.
func Generate(p *sched.Pipeline, a *talloc.Assignment) (*Kernel, error) {
	g := p.Graph
	if err := talloc.Validate(g, a); err != nil {
		return nil, err
	}
	k := &Kernel{
		Name:    g.Algo.Name,
		Graph:   g,
		Mode:    ModeDirect,
		SendTB:  a.SendTB,
		RecvTB:  a.RecvTB,
		TaskSub: p.TaskSub,
		TaskPos: p.TaskPos,
	}
	// Count each TB's slots, then fill exact-size slot lists, runs of
	// one array, in global pipeline position order so every TB's slot
	// sequence is a subsequence of one total order — this guarantees
	// the rendezvous graph is deadlock-free.
	progs := make([]TBProgram, len(a.TBs))
	end := make([]int32, len(a.TBs)+1) // counts, then each run's fill cursor
	for t := range g.Tasks {
		end[a.SendTB[t]+1]++
		end[a.RecvTB[t]+1]++
	}
	for i := 1; i < len(end); i++ {
		end[i] += end[i-1]
	}
	slots := make([]ir.Primitive, end[len(a.TBs)])
	for _, t := range p.Order {
		send, recv := g.Tasks[t].Primitives()
		slots[end[a.SendTB[t]]], slots[end[a.RecvTB[t]]] = send, recv
		end[a.SendTB[t]]++
		end[a.RecvTB[t]]++
	}
	// A TB's label is its prefix, then its endpoints' String forms
	// joined with "+" ("0→1/send+2→1/recv", "ch1/0→1/send"); all labels
	// are slices of one string, built at its exact length.
	width := func(tb talloc.TB) int {
		n := len(tb.Prefix) + len(tb.Endpoints) - 1 // the prefix and "+" separators
		for _, ep := range tb.Endpoints {
			n += labelLen(ep)
		}
		return n
	}
	n := 0
	for _, tb := range a.TBs {
		n += width(tb)
	}
	var b strings.Builder
	b.Grow(n)
	var num [20]byte
	for _, tb := range a.TBs {
		b.WriteString(tb.Prefix)
		for j, ep := range tb.Endpoints {
			if j > 0 {
				b.WriteByte('+')
			}
			b.Write(strconv.AppendInt(num[:0], int64(ep.Conn.Src), 10))
			b.WriteString("→")
			b.Write(strconv.AppendInt(num[:0], int64(ep.Conn.Dst), 10))
			b.WriteByte('/')
			b.WriteString(ep.Side.String())
		}
	}
	labels := b.String()
	k.TBs = make([]*TBProgram, len(a.TBs))
	lo, at := int32(0), 0
	for i, tb := range a.TBs {
		next := at + width(tb)
		progs[i] = TBProgram{ID: i, Rank: tb.Rank, Order: TaskMajor, Slots: slots[lo:end[i]:end[i]], Label: labels[at:next]}
		k.TBs[i] = &progs[i]
		lo, at = end[i], next
	}
	// Link predecessors serialize communication-dependent tasks in
	// pipeline position order through each link's saturation window.
	k.LinkPreds = p.LinkPreds
	if err := Validate(k); err != nil {
		return nil, fmt.Errorf("kernel: generated kernel invalid: %w", err)
	}
	return k, nil
}

// labelLen is the byte length of an endpoint's label, "src→dst/side".
func labelLen(ep talloc.Endpoint) int {
	return digits(int(ep.Conn.Src)) + len("→") + digits(int(ep.Conn.Dst)) + 1 + len(ep.Side.String())
}

// digits is the length of n in decimal.
func digits(n int) int {
	d := 1
	if n < 0 {
		d, n = 2, -n
	}
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// Validate checks the kernel's structure and returns the first
// violation CheckStructure finds as an error, nil for a valid kernel.
func Validate(k *Kernel) error {
	if fs := CheckStructure(k); len(fs) > 0 {
		return fmt.Errorf("kernel %q: %s", k.Name, fs[0].Message)
	}
	return nil
}

// CheckStructure is the one structural check of a kernel, shared by
// Validate and the static analyzer's structure pass. It tolerates
// arbitrarily corrupt kernels and returns every violation, in
// deterministic order: an undefined protocol tier or execution mode;
// task/TB tables that do not cover the graph; a TB whose ID is not its
// index (the simulator and runtime index TBs by the tables' IDs), whose
// micro-batch order is undefined or that holds no slots; a
// slot that references an unknown task, runs on the wrong rank (its
// task's sender for a send, receiver otherwise), sits in a TB the
// tables do not name, or has an unknown primitive kind; a task without
// exactly one send and one recv primitive; a link predecessor table
// that is not a well-formed CSR of one row per task, or an invalid link
// predecessor.
func CheckStructure(k *Kernel) []invariant.Finding {
	var fs []invariant.Finding
	add := func(code string, tasks []ir.TaskID, format string, args ...any) {
		fs = append(fs, invariant.Finding{Code: code, Message: fmt.Sprintf(format, args...), Tasks: tasks})
	}
	g := k.Graph
	if !k.Protocol.Valid() {
		add("protocol", nil, "undefined protocol tier %d (want auto, LL, LL128 or Simple)", int(k.Protocol))
	}
	if k.Mode != ModeDirect && k.Mode != ModeInterpreted {
		add("structure", nil, "undefined execution mode %d (want direct or interpreted)", int(k.Mode))
	}
	if len(k.SendTB) != len(g.Tasks) || len(k.RecvTB) != len(g.Tasks) {
		add("structure", nil, "task/TB table size mismatch: %d send, %d recv entries for %d tasks",
			len(k.SendTB), len(k.RecvTB), len(g.Tasks))
		return fs
	}
	counts := make([]int32, 2*len(g.Tasks))
	sends, recvs := counts[:len(g.Tasks)], counts[len(g.Tasks):]
	for i, tb := range k.TBs {
		if tb.ID != i {
			add("structure", nil, "TB at index %d carries ID %d (TB IDs must equal their index)", i, tb.ID)
		}
		if tb.Order != TaskMajor && tb.Order != MBMajor {
			add("structure", nil, "TB %d (%s) has undefined micro-batch order %d (want task-major or mb-major)", tb.ID, tb.Label, int(tb.Order))
		}
		if len(tb.Slots) == 0 {
			add("structure", nil, "TB %d (%s) has no slots", tb.ID, tb.Label)
		}
		for s, prim := range tb.Slots {
			t := prim.Task
			if int(t) < 0 || int(t) >= len(g.Tasks) {
				add("structure", nil, "TB %d slot %d references unknown task %d", tb.ID, s, t)
				continue
			}
			// A slot's rank is its task's sender or receiver; an unknown
			// kind is reported below instead.
			known := prim.Kind >= ir.PrimSend && prim.Kind <= ir.PrimRecvReduceCopy
			if rank, _ := g.Tasks[t].Ends(prim.Kind); known && rank != tb.Rank {
				add("structure", []ir.TaskID{t}, "TB %d on rank %d holds primitive for rank %d (%s)",
					tb.ID, tb.Rank, rank, k.DescribeTask(t))
			}
			switch prim.Kind {
			case ir.PrimSend:
				sends[t]++
				if k.SendTB[t] != tb.ID {
					add("structure", []ir.TaskID{t}, "%s: send primitive in TB %d, table says %d",
						k.DescribeTask(t), tb.ID, k.SendTB[t])
				}
			case ir.PrimRecv, ir.PrimRecvReduceCopy:
				recvs[t]++
				if k.RecvTB[t] != tb.ID {
					add("structure", []ir.TaskID{t}, "%s: recv primitive in TB %d, table says %d",
						k.DescribeTask(t), tb.ID, k.RecvTB[t])
				}
			default:
				recvs[t]++ // every non-send occupies the task's recv side
				add("structure", []ir.TaskID{t}, "TB %d slot %d has unknown primitive kind %d", tb.ID, s, int(prim.Kind))
			}
		}
	}
	for t := range g.Tasks {
		if sends[t] != 1 || recvs[t] != 1 {
			add("structure", []ir.TaskID{ir.TaskID(t)}, "%s has %d send / %d recv primitives (want 1/1)",
				k.DescribeTask(ir.TaskID(t)), sends[t], recvs[t])
		}
	}
	if err := k.LinkPreds.Check(len(g.Tasks)); err != nil {
		add("structure", nil, "corrupt link predecessor table: %v", err)
		return fs
	}
	for t := range g.Tasks {
		for _, p := range k.LinkPreds.Row(t) {
			if int(p) < 0 || int(p) >= len(g.Tasks) || int(p) == t {
				add("structure", []ir.TaskID{ir.TaskID(t), p}, "task %d has invalid link predecessor %d", t, p)
			}
		}
	}
	return fs
}

// DescribeTask renders a task for diagnostics: its transfer tuple when
// the ID resolves, the bare ID otherwise.
func (k *Kernel) DescribeTask(t ir.TaskID) string {
	if int(t) >= 0 && int(t) < len(k.Graph.Tasks) {
		tr := k.Graph.Tasks[t].Transfer
		return fmt.Sprintf("task %d (%d→%d chunk %d step %d)", t, tr.Src, tr.Dst, tr.Chunk, tr.Step)
	}
	return fmt.Sprintf("task %d (unknown)", t)
}

// DescribeSlot renders a slot of a valid kernel through the task it
// names: "send[task=3 rank=0 peer=1 chunk=2 step=0]".
func (k *Kernel) DescribeSlot(p ir.Primitive) string {
	task := k.Graph.Tasks[p.Task]
	rank, peer := task.Ends(p.Kind)
	return fmt.Sprintf("%s[task=%d rank=%d peer=%d chunk=%d step=%d]",
		p.Kind, p.Task, rank, peer, task.Chunk, task.Step)
}

// TotalSlots returns the total primitive count across TBs (each task
// contributes two).
func (k *Kernel) TotalSlots() int {
	n := 0
	for _, tb := range k.TBs {
		n += len(tb.Slots)
	}
	return n
}
