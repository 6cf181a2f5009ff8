package rt

// Plan-level recovery: the escalation step past retry and degrade. When
// the fault schedule carries permanent failures (link-out, rank-out),
// no amount of retrying completes a task routed over a dead resource.
// The executor therefore computes, *statically* from the schedule and
// the kernel, which tasks are stranded: every task whose path crosses a
// permanently dead resource or whose endpoint rank died, plus the
// transitive data-dependency closure (a task fed by a stranded task can
// never receive correct data). Epoch 0 runs the complement — a
// consistent, dependency-closed frontier — while stranded sends burn
// their retry budget and record the escalation. Afterwards Execute
// snapshots the frontier's symbolic holdings (internal/verify), carves
// the dead resources out of the topology, re-runs the
// sched → talloc → kernel pipeline on a repair plan covering only the
// remaining work (internal/replan), and resumes execution on the same
// buffers.
//
// Determinism: the stranded set, frontier trace, carved topology and
// repair plan are all pure functions of (kernel, schedule), so the
// ReplanEvent log — and the whole Result modulo wall-clock times — is
// identical across runs, including under the race detector. Goroutine
// interleaving never influences what is abandoned or replanned.
//
// Transient fault windows are deemed expired by the time the replan's
// health sweep completes, so repair epochs run fault-free; permanent
// failures discovered together are carved together, which is why a
// single replan epoch suffices.

import (
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/replan"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/verify"
)

// repairChunkBytes sizes the thread-block window estimate of repair
// kernels. The runtime has no payload; only TB merging depends on it.
const repairChunkBytes = 1 << 20

// Typed replan failures, re-exported so rt callers classify outcomes
// without importing the planner.
var (
	ErrPartitioned   = replan.ErrPartitioned
	ErrUnrecoverable = replan.ErrUnrecoverable
)

// ReplanEvent records one plan-level recovery on rt.Result. Every field
// is a pure function of (kernel, fault schedule): repeated runs of the
// same configuration produce identical logs.
type ReplanEvent struct {
	// Epoch numbers the recovery (the initial plan is epoch 0).
	Epoch int
	// TriggerTask is the lowest task directly stranded by a permanent
	// failure.
	TriggerTask ir.TaskID
	// DeadResources and DeadRanks are what the replan carved out,
	// sorted.
	DeadResources []topo.ResourceID
	DeadRanks     []ir.Rank
	// CompletedTasks counts the epoch-0 frontier; AbandonedTasks the
	// stranded tasks the repair plan replaces.
	CompletedTasks int
	AbandonedTasks int
	// RepairTasks counts the transfers of the repair plan (0 when the
	// frontier already satisfied the degraded postcondition).
	RepairTasks int
	// LostChunks lists chunks with contributions the replanner declared
	// unrecoverable.
	LostChunks []ir.ChunkID
}

// permPlan is the static analysis of a schedule's permanent failures
// against one kernel.
type permPlan struct {
	deadRes   []topo.ResourceID
	deadRanks []ir.Rank
	// direct[t]: t's own path or endpoints are dead. blocked[t]: direct
	// or downstream of a direct task via data dependencies.
	direct   []bool
	blocked  []bool
	nBlocked int
	trigger  ir.TaskID
}

// analyzePermanent computes the stranded-task set. Returns nil when the
// schedule has no permanent failures or none of them touches the plan.
func analyzePermanent(k *kernel.Kernel, sched *fault.Schedule) *permPlan {
	deadRes, deadRanks := sched.PermanentFailures()
	if len(deadRes) == 0 && len(deadRanks) == 0 {
		return nil
	}
	g := k.Graph
	resSet := make(map[topo.ResourceID]bool, len(deadRes))
	for _, r := range deadRes {
		resSet[r] = true
	}
	rankSet := make(map[ir.Rank]bool, len(deadRanks))
	for _, r := range deadRanks {
		rankSet[r] = true
	}
	p := &permPlan{
		deadRes: deadRes, deadRanks: deadRanks,
		direct:  make([]bool, len(g.Tasks)),
		blocked: make([]bool, len(g.Tasks)),
		trigger: -1,
	}
	var queue []ir.TaskID
	for t := range g.Tasks {
		task := g.Tasks[t]
		hit := rankSet[task.Src] || rankSet[task.Dst]
		if !hit {
			for _, r := range g.Path(task.ID).Resources {
				if resSet[r] {
					hit = true
					break
				}
			}
		}
		if hit {
			p.direct[t] = true
			p.blocked[t] = true
			queue = append(queue, ir.TaskID(t))
			if p.trigger < 0 {
				p.trigger = ir.TaskID(t)
			}
		}
	}
	if len(queue) == 0 {
		return nil // permanent failures exist but miss the plan entirely
	}
	// Transitive closure over data dependencies: a dependent of a
	// stranded task can never receive correct input.
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

// frontierTrace returns the transfers epoch 0 actually executed, in the
// canonical ascending-TaskID order (= (step, chunk, src, dst) order,
// consistent with the data flow).
func frontierTrace(ex *executor) []ir.Transfer {
	g := ex.k.Graph
	out := make([]ir.Transfer, 0, len(g.Tasks))
	for t := range g.Tasks {
		if ex.blocked != nil && ex.blocked[t] {
			continue
		}
		out = append(out, g.Tasks[t].Transfer)
	}
	return out
}

// compileRepair runs the repair algorithm through the full ResCCL
// pipeline on the carved topology. Repair plans are always compiled with
// the ResCCL pipeline regardless of the original backend: it is the only
// pipeline that consumes an arbitrary topology.
//
// Before the repaired plan is allowed to resume on live buffers it must
// pass the static analyzer's pre-resume gate: deadlock and hazard
// freedom, proven without executing (sched.Schedule and kernel.Generate
// have already checked the pipeline invariants and the kernel's
// structure). A replan happens exactly when the system is already
// degraded — the one moment a hung or racing plan would be
// catastrophic, and the one plan the offline test matrix never saw.
// The repair kernel inherits the failed epoch's protocol tier: replans
// happen mid-collective, when the transport tier on every surviving
// rank is already committed.
func compileRepair(algo *ir.Algorithm, tp *topo.Topology, nMB int, proto ir.Protocol) (*kernel.Kernel, error) {
	if !proto.Valid() {
		return nil, fmt.Errorf("rt: replan: undefined protocol tier %d", int(proto))
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
	alloc := talloc.StateBased(pipe, w)
	k, err := kernel.Generate(pipe, alloc)
	if err != nil {
		return nil, err
	}
	k.Protocol = proto
	report, err := analyze.Plan(k, analyze.Options{Checks: analyze.CheckGate})
	if err != nil {
		return nil, fmt.Errorf("rt: replan gate: %w", err)
	}
	if err := report.Err(); err != nil {
		return nil, fmt.Errorf("rt: replan gate rejected the repair plan: %w", err)
	}
	// Resource-efficiency certification of repair plans: a degraded
	// fabric may cost optimality, so the gate never judges the gap —
	// but the budget is a hard line. Budget lints are warnings on the
	// healthy compile path; here they reject: a repair plan that
	// over-subscribes SMs or buffers on an already-degraded system
	// would amplify the incident it is meant to resolve.
	for _, d := range cert.BudgetLints(k, tp, cert.Options{}) {
		if cert.IsBudgetDiag(d.Code) {
			return nil, fmt.Errorf("rt: replan gate rejected the repair plan: %s: %s", d.Code, d.Message)
		}
	}
	return k, nil
}

// replanAndResume performs one plan-level recovery: snapshot, carve,
// replan, recompile, resume on the carried-over buffers. It extends res
// in place.
func replanAndResume(ex *executor, perm *permPlan, res *Result, watchdog time.Duration) error {
	g := ex.k.Graph
	algo := g.Algo
	h, err := verify.Replay(algo.Op, algo.NRanks, algo.NChunks, algo.Initial, res.Trace)
	if err != nil {
		return fmt.Errorf("rt: replan: frontier snapshot is inconsistent: %w", err)
	}
	carved, err := g.Topo.Carve(perm.deadRes, perm.deadRanks)
	if err != nil {
		return fmt.Errorf("rt: replan: %w", err)
	}
	rp, err := replan.Build(algo.Name, h, carved)
	if err != nil {
		return fmt.Errorf("rt: replan: %w", err)
	}
	res.Lost = rp.Lost
	if len(perm.deadRanks) > 0 {
		res.Surviving = make([]bool, algo.NRanks)
		for r := range res.Surviving {
			res.Surviving[r] = carved.RankAlive(ir.Rank(r))
		}
	}
	ev := ReplanEvent{
		Epoch:          1,
		TriggerTask:    perm.trigger,
		DeadResources:  perm.deadRes,
		DeadRanks:      perm.deadRanks,
		CompletedTasks: len(g.Tasks) - perm.nBlocked,
		AbandonedTasks: perm.nBlocked,
		LostChunks:     rp.LostChunks,
	}
	if rp.Algo != nil {
		k2, err := compileRepair(rp.Algo, carved, ex.n, ex.k.Protocol)
		if err != nil {
			return fmt.Errorf("rt: replan: recompile: %w", err)
		}
		ex2 := newExecutor(k2, ex.n)
		ex2.policy = ex.policy
		// Resume on the very buffers epoch 0 left behind: the repair
		// plan's Initial matrix describes exactly their valid locations.
		ex2.states = ex.states
		ex2.setupBarrier()
		if err := ex2.run(watchdog); err != nil {
			return err
		}
		res.States = ex2.states
		res.Instances += int(ex2.completed.Load())
		res.Trace = append(res.Trace, rp.Algo.Sorted()...)
		ev.RepairTasks = len(rp.Algo.Transfers)
	}
	res.ReplanEvents = append(res.ReplanEvents, ev)
	return nil
}
