package replan

// Recovery on the simulated clock. A fault schedule's effect on one
// kernel is decided before the kernel runs, as a pure function of
// (kernel, schedule), so equal runs recover identically:
//
//   - A send crossing a down or flap window fails, backs off and
//     retries: the window fails the smallest number of attempts a ≥ 1
//     whose backoffs, (2^a − 1)·backoff, outlast it. The time the
//     window costs is the simulator's own stall at fault.DownFactor.
//   - A send that would need more than maxRetries attempts exhausts its
//     budget, and its sub-pipeline degrades from pipelined to
//     sequential execution: every task of the sub waits for the sub's
//     previous task (in pipeline position) to finish the same
//     micro-batch.
//   - Permanent failures (link-out, rank-out) strand every task whose
//     path or endpoint died, plus the tasks downstream of them. Epoch 0
//     runs the rest, the frontier. Epoch 1 runs a repair plan, built
//     from the frontier's symbolic holdings on the carved topology, once
//     the frontier has drained and the first stranded send has spent
//     its retry budget. Every permanent failure of the schedule is
//     carved at once, so one repair epoch suffices, and it runs without
//     the transient windows, which have expired by then.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/verify"
)

const (
	// maxRetries is the failed-attempt budget of one send invocation.
	maxRetries = 3
	// backoff is the first retry delay in seconds; retry a waits
	// backoff·2^(a−1).
	backoff = 1e-3
	// repairChunkBytes sizes the thread-block window estimate of repair
	// kernels; only TB merging depends on it.
	repairChunkBytes = 1 << 20
)

// attempts returns how many consecutive send attempts a down window of
// d seconds fails: the smallest a ≥ 1 with (2^a − 1)·backoff ≥ d.
func attempts(d float64) int {
	a := 1
	for a < 62 && float64(int64(1)<<a-1)*backoff < d {
		a++
	}
	return a
}

// Recovery reports how one run recovered from its fault schedule. Every
// field is a pure function of (kernel, schedule, micro-batch count).
type Recovery struct {
	// Retries counts failed send attempts over every invocation.
	// Recovered counts invocations whose retries outlasted their outage,
	// Degraded those that exhausted the budget; DegradedSubs lists the
	// sub-pipelines that ran sequentially because of them, ascending.
	Retries, Recovered, Degraded int
	DegradedSubs                 []int
	// Replan is the plan-level recovery, nil unless permanent failures
	// stranded part of the plan.
	Replan *Event
}

// Event records one plan-level recovery.
type Event struct {
	// Start is the simulated time epoch 1 starts: when the frontier has
	// drained and the first stranded send has spent its retry budget.
	Start float64
	// Escalated counts the stranded send invocations that spent their
	// retry budget and escalated to the replan.
	Escalated int
	// DeadResources and DeadRanks are what the replan carved out,
	// ascending.
	DeadResources []topo.ResourceID
	DeadRanks     []ir.Rank
	// CompletedTasks counts the frontier; AbandonedTasks the stranded
	// tasks the repair plan replaces; RepairTasks the repair plan's
	// transfers (0 when the frontier already met the degraded
	// postcondition).
	CompletedTasks, AbandonedTasks, RepairTasks int
	// LostChunks lists chunks with contributions the replan declared
	// unrecoverable; Lost[c] is chunk c's lost set (nil when nothing was
	// lost) and Surviving[r] whether rank r survived (nil when every
	// rank did). Together they are the degraded postcondition.
	LostChunks []ir.ChunkID
	Lost       []verify.Set
	Surviving  []bool
	// Repair is the repair kernel, compiled on the carved topology
	// (Repair.Graph.Topo); nil when nothing needs to move.
	Repair *kernel.Kernel
}

// Analysis is what a fault schedule does to one kernel, decided before
// the kernel runs.
type Analysis struct {
	k *kernel.Kernel
	// fails[t] is how many attempts each invocation of task t fails; nil
	// when no down window crosses the plan.
	fails []int
	subs  []int
	perm  *permanent
	// epoch0 is the kernel epoch 0 runs; orig[i] is the task of k its
	// task i stands for (nil when the numbering is k's).
	epoch0 *kernel.Kernel
	orig   []ir.TaskID
}

// permanent is the stranded-task set of a schedule's permanent failures.
type permanent struct {
	deadRes   []topo.ResourceID
	deadRanks []ir.Rank
	// at is the earliest permanent failure's start.
	at float64
	// direct[t]: t's own path or endpoints died. blocked[t]: direct or
	// downstream of a direct task through data dependencies.
	direct, blocked []bool
	nBlocked        int
}

// Analyze decides the recovery of k under s.
func Analyze(k *kernel.Kernel, s *fault.Schedule) *Analysis {
	a := &Analysis{k: k, fails: failCounts(k.Graph, s), perm: strand(k, s), epoch0: k}
	degraded := make(map[int]bool)
	for t, n := range a.fails {
		if n > maxRetries && !a.stranded(t) && t < len(k.TaskSub) && k.TaskSub[t] >= 0 {
			degraded[k.TaskSub[t]] = true
		}
	}
	var after []ir.TaskID
	if len(degraded) > 0 {
		after = subPrev(k)
		for t, p := range after {
			if p >= 0 && (!degraded[k.TaskSub[t]] || a.stranded(int(p))) {
				after[t] = -1
			}
		}
		for sub := range degraded {
			a.subs = append(a.subs, sub)
		}
		slices.Sort(a.subs)
	}
	if a.perm != nil || after != nil {
		a.epoch0, a.orig = derive(k, a.stranded, after)
	}
	return a
}

// stranded reports whether a permanent failure stranded task t.
func (a *Analysis) stranded(t int) bool { return a.perm != nil && a.perm.blocked[t] }

// Kernel returns the kernel epoch 0 runs: k without its stranded tasks,
// with its degraded sub-pipelines serialized. It is k itself when the
// schedule changes neither; otherwise a copy, and k is untouched.
func (a *Analysis) Kernel() *kernel.Kernel { return a.epoch0 }

// TaskOf returns the task of the analyzed kernel that task t of Kernel()
// stands for.
func (a *Analysis) TaskOf(t ir.TaskID) ir.TaskID {
	if a.orig == nil {
		return t
	}
	return a.orig[t]
}

// Recover reports the recovery of a run of nMB micro-batches whose
// epoch 0 drained at frontierDone, planning and compiling its repair
// epoch when permanent failures stranded part of the plan. It fails
// with ErrPartitioned or ErrUnrecoverable when no repair can serve the
// survivors.
func (a *Analysis) Recover(nMB int, frontierDone float64) (*Recovery, error) {
	rec := &Recovery{DegradedSubs: a.subs}
	for t, n := range a.fails {
		if n > 0 && !a.stranded(t) {
			rec.Retries += nMB * min(n, maxRetries)
			if n > maxRetries {
				rec.Degraded += nMB
			} else {
				rec.Recovered += nMB
			}
		}
	}
	if a.perm == nil {
		return rec, nil
	}
	ev, err := a.replan(nMB)
	if err != nil {
		return nil, err
	}
	// The first stranded send fails from the first permanent failure on
	// and escalates once its backoffs, (2^maxRetries − 1)·backoff, run
	// out.
	ev.Start = max(frontierDone, a.perm.at+float64(int64(1)<<maxRetries-1)*backoff)
	rec.Retries += maxRetries * ev.Escalated
	rec.Replan = ev
	return rec, nil
}

// replan snapshots the frontier's symbolic holdings, carves the dead
// resources and ranks out of the topology and compiles the repair plan
// covering the remaining work.
func (a *Analysis) replan(nMB int) (*Event, error) {
	g, p := a.k.Graph, a.perm
	algo := g.Algo
	frontier := make([]ir.Transfer, 0, len(g.Tasks)-p.nBlocked)
	direct := 0
	for t, task := range g.Tasks {
		if !p.blocked[t] {
			frontier = append(frontier, task.Transfer)
		} else if p.direct[t] {
			direct++
		}
	}
	h, err := verify.Replay(algo.Op, algo.NRanks, algo.NChunks, algo.Initial, frontier)
	if err != nil {
		return nil, fmt.Errorf("replan: frontier snapshot is inconsistent: %w", err)
	}
	carved, err := g.Topo.Carve(p.deadRes, p.deadRanks)
	if err != nil {
		return nil, fmt.Errorf("replan: %w", err)
	}
	rp, err := Build(algo.Name, h, carved)
	if err != nil {
		return nil, err
	}
	ev := &Event{
		Escalated:      nMB * direct,
		DeadResources:  p.deadRes,
		DeadRanks:      p.deadRanks,
		CompletedTasks: len(g.Tasks) - p.nBlocked,
		AbandonedTasks: p.nBlocked,
		LostChunks:     rp.LostChunks,
		Lost:           rp.Lost,
	}
	if len(p.deadRanks) > 0 {
		ev.Surviving = make([]bool, algo.NRanks)
		for r := range ev.Surviving {
			ev.Surviving[r] = carved.RankAlive(ir.Rank(r))
		}
	}
	if rp.Algo != nil {
		if ev.Repair, err = compileRepair(rp.Algo, carved, nMB, a.k.Protocol); err != nil {
			return nil, fmt.Errorf("replan: recompile: %w", err)
		}
		ev.RepairTasks = len(rp.Algo.Transfers)
	}
	return ev, nil
}

// failCounts maps the schedule's down and flap windows onto the graph:
// fails[t] is how many attempts every invocation of task t fails. An
// event downing several resources of one path counts once for it.
// Degrade windows and stragglers only slow the simulator; permanent
// failures strand tasks instead (strand). Nil when no window crosses
// the plan.
func failCounts(g *dag.Graph, s *fault.Schedule) []int {
	var fails []int
	for _, ev := range s.Events {
		if ev.Kind != fault.KindLinkDown && ev.Kind != fault.KindNICFlap {
			continue
		}
		n := attempts(ev.Duration)
		hit := crossing(g, ev.Resources)
		for t := range g.Tasks {
			if hit[g.Conn[t]] {
				if fails == nil {
					fails = make([]int, len(g.Tasks))
				}
				fails[t] += n
			}
		}
	}
	return fails
}

// crossing reports, per connection of g, whether its path crosses one
// of the resources down.
func crossing(g *dag.Graph, down []topo.ResourceID) []bool {
	hit := make([]bool, len(g.ConnPaths))
	for c, p := range g.ConnPaths {
		for _, r := range p.Resources {
			if slices.Contains(down, r) {
				hit[c] = true
				break
			}
		}
	}
	return hit
}

// subPrev returns, for every task in a sub-pipeline, the task of the
// same sub immediately before it in pipeline position (TaskPos, a
// permutation), -1 for the first task of a sub and tasks outside any
// sub: one pass over the tasks sorted by (sub, position). A degraded sub
// waits on it; TB slot order follows pipeline position, so the wait
// cannot deadlock. Nil when the kernel carries no sub-pipeline
// structure.
func subPrev(k *kernel.Kernel) []ir.TaskID {
	sub, pos := k.TaskSub, k.TaskPos
	if len(sub) != len(k.Graph.Tasks) || len(pos) != len(sub) {
		return nil
	}
	prev := make([]ir.TaskID, len(sub))
	order := make([]ir.TaskID, 0, len(sub))
	for t := range sub {
		prev[t] = -1
		if sub[t] >= 0 {
			order = append(order, ir.TaskID(t))
		}
	}
	slices.SortFunc(order, func(a, b ir.TaskID) int {
		return cmp.Or(cmp.Compare(sub[a], sub[b]), cmp.Compare(pos[a], pos[b]), cmp.Compare(a, b))
	})
	for i := 1; i < len(order); i++ {
		if t, u := order[i], order[i-1]; sub[t] == sub[u] {
			prev[t] = u
		}
	}
	return prev
}

// strand computes the stranded-task set. Nil when the schedule has no
// permanent failure or none touches the plan.
func strand(k *kernel.Kernel, s *fault.Schedule) *permanent {
	deadRes, deadRanks := s.PermanentFailures()
	if len(deadRes) == 0 && len(deadRanks) == 0 {
		return nil
	}
	g := k.Graph
	p := &permanent{
		deadRes: deadRes, deadRanks: deadRanks, at: math.Inf(1),
		direct:  make([]bool, len(g.Tasks)),
		blocked: make([]bool, len(g.Tasks)),
	}
	for _, ev := range s.Events {
		if ev.Kind.Permanent() {
			p.at = min(p.at, ev.Start)
		}
	}
	var queue []ir.TaskID
	hit := crossing(g, deadRes)
	for t, task := range g.Tasks {
		if hit[g.Conn[t]] || slices.Contains(deadRanks, task.Src) || slices.Contains(deadRanks, task.Dst) {
			p.direct[t], p.blocked[t] = true, true
			queue = append(queue, ir.TaskID(t))
		}
	}
	if len(queue) == 0 {
		return nil
	}
	// A dependent of a stranded task can never receive correct input.
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		for _, d := range g.Dependents.Row(int(t)) {
			if !p.blocked[d] {
				p.blocked[d] = true
				queue = append(queue, d)
			}
		}
	}
	for _, b := range p.blocked {
		if b {
			p.nBlocked++
		}
	}
	return p
}

// derive copies k without the tasks drop reports, renumbered densely in
// ascending order, with after[t] ≥ 0 added as a data dependency of task
// t (after may be nil). It returns the copy and the task of k each of
// its tasks stands for. Thread blocks keep their IDs; a TB whose every
// primitive is dropped keeps no slots.
func derive(k *kernel.Kernel, drop func(t int) bool, after []ir.TaskID) (*kernel.Kernel, []ir.TaskID) {
	g := k.Graph
	id := make([]ir.TaskID, len(g.Tasks))
	var orig []ir.TaskID
	for t := range g.Tasks {
		id[t] = -1
		if !drop(t) {
			id[t] = ir.TaskID(len(orig))
			orig = append(orig, ir.TaskID(t))
		}
	}
	g2 := *g
	algo := *g.Algo
	algo.Transfers = make([]ir.Transfer, len(orig))
	g2.Algo = &algo
	g2.Tasks = make([]ir.Task, len(orig))
	g2.Conn = pick(g.Conn, orig)
	for i, t := range orig {
		g2.Tasks[i] = ir.Task{ID: ir.TaskID(i), Transfer: g.Tasks[t].Transfer}
		algo.Transfers[i] = g.Tasks[t].Transfer
	}
	g2.Deps = remap(g.Deps, orig, id, after)
	g2.Dependents = reverse(g2.Deps)
	g2.ChunkTasks = remap(g.ChunkTasks, nil, id, nil)
	g2.LinkTasks = remap(g.LinkTasks, nil, id, nil)

	k2 := *k
	k2.Graph = &g2
	k2.LinkPreds = remap(k.LinkPreds, orig, id, nil)
	k2.SendTB, k2.RecvTB = pick(k.SendTB, orig), pick(k.RecvTB, orig)
	if len(k.TaskSub) == len(g.Tasks) && len(k.TaskPos) == len(g.Tasks) {
		k2.TaskSub, k2.TaskPos = pick(k.TaskSub, orig), pick(k.TaskPos, orig)
	}
	k2.TBs = make([]*kernel.TBProgram, len(k.TBs))
	for i, tb := range k.TBs {
		tb2 := *tb
		tb2.Slots = nil
		for _, p := range tb.Slots {
			if id[p.Task] >= 0 {
				tb2.Slots = append(tb2.Slots, ir.Primitive{Task: id[p.Task], Kind: p.Kind})
			}
		}
		k2.TBs[i] = &tb2
	}
	return &k2, orig
}

// pick returns s[i] for each i of idx.
func pick[T any](s []T, idx []ir.TaskID) []T {
	out := make([]T, len(idx))
	for j, i := range idx {
		out[j] = s[i]
	}
	return out
}

// remap returns the rows of c that rows names (every row when rows is
// nil), each item renamed by id and dropped where id is -1. after[r] ≥
// 0 joins row r, which stays ascending and duplicate-free.
func remap(c dag.CSR, rows []ir.TaskID, id []ir.TaskID, after []ir.TaskID) dag.CSR {
	n := c.Len()
	if rows != nil {
		n = len(rows)
	}
	out := dag.CSR{Off: make([]int32, 1, n+1)}
	for i := range n {
		r := i
		if rows != nil {
			r = int(rows[i])
		}
		start := len(out.Items)
		for _, t := range c.Row(r) {
			if id[t] >= 0 {
				out.Items = append(out.Items, id[t])
			}
		}
		if after != nil && after[r] >= 0 {
			out.Items = append(out.Items, id[after[r]])
			slices.Sort(out.Items[start:])
			out.Items = append(out.Items[:start], slices.Compact(out.Items[start:])...)
		}
		out.Off = append(out.Off, int32(len(out.Items)))
	}
	return out
}

// reverse returns the reverse adjacency of c, rows ascending.
func reverse(c dag.CSR) dag.CSR {
	n := c.Len()
	out := dag.CSR{Off: make([]int32, n+1), Items: make([]ir.TaskID, len(c.Items))}
	for _, t := range c.Items {
		out.Off[t+1]++
	}
	for i := 1; i <= n; i++ {
		out.Off[i] += out.Off[i-1]
	}
	next := slices.Clone(out.Off[:n])
	for r := range n {
		for _, t := range c.Row(r) {
			out.Items[next[t]] = ir.TaskID(r)
			next[t]++
		}
	}
	return out
}

// compileRepair runs the repair algorithm through the ResCCL pipeline on
// the carved topology, the only pipeline that consumes an arbitrary
// topology, whatever backend compiled the failed plan.
//
// The repair kernel must pass the static analyzer's gate (deadlock and
// hazard freedom) before it runs: a replan happens exactly when the
// system is already degraded, and its plan is one no offline test saw.
// It inherits the failed epoch's protocol tier, committed on every
// surviving rank mid-collective.
func compileRepair(algo *ir.Algorithm, tp *topo.Topology, nMB int, proto ir.Protocol) (*kernel.Kernel, error) {
	if !proto.Valid() {
		return nil, fmt.Errorf("replan: undefined protocol tier %d", int(proto))
	}
	g, err := dag.Build(algo, tp)
	if err != nil {
		return nil, err
	}
	pipe, err := sched.Schedule(g, sched.PolicyHPDS)
	if err != nil {
		return nil, err
	}
	w := talloc.EstimateWindows(pipe, repairChunkBytes, nMB)
	k, err := kernel.Generate(pipe, talloc.StateBased(pipe, w))
	if err != nil {
		return nil, err
	}
	k.Protocol = proto
	report, err := analyze.Plan(k, analyze.Options{Checks: analyze.CheckGate})
	if err != nil {
		return nil, fmt.Errorf("replan gate: %w", err)
	}
	if err := report.Err(); err != nil {
		return nil, fmt.Errorf("replan gate rejected the repair plan: %w", err)
	}
	// A degraded fabric may cost optimality, so the gate never judges
	// the gap, but the budget is a hard line: a repair plan that
	// over-subscribes SMs or buffers on an already-degraded system would
	// amplify the incident it is meant to resolve.
	if lints := cert.BudgetLints(k, tp, cert.Options{}); len(lints) > 0 {
		return nil, fmt.Errorf("replan gate rejected the repair plan: %s: %s", lints[0].Code, lints[0].Message)
	}
	return k, nil
}
