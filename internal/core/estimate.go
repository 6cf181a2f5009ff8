package core

import (
	"fmt"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// StrategyEstimate holds the analytic completion-time estimates of
// §3's three execution granularities (Eq. 3–5) for one algorithm on one
// topology — the model ResCCL's design argument is built on.
//
// TAlgorithm is an estimate (bubbles folded into the per-micro-batch
// critical path); TStage is a steady-state estimate that includes the
// Eq. 1 contention term γ·L(z) for stage channels that overlap on the
// bottleneck link. TTask is a sound floor of any execution that
// enforces the link windows, as a ResCCL kernel does: the bottleneck
// link's window-serialised work (talloc.LinkWindowFloor), the same term
// the certificate's lower bound carries. It omits Eq. 5's one-time load
// t_Load, which the simulator does not charge.
type StrategyEstimate struct {
	// MicroBatches is n; ChunkBytes the effective chunk size.
	MicroBatches int
	ChunkBytes   float64

	// Bottleneck is the most loaded communication link and
	// TasksOnBottleneck its per-micro-batch task count (m of Eq. 5).
	Bottleneck        topo.LinkID
	TasksOnBottleneck int

	// TAlgorithm, TStage and TTask estimate the completion time (in
	// seconds) under algorithm-level, stage-level and task-level
	// execution (Eq. 3, 4, 5).
	TAlgorithm, TStage, TTask float64
}

// String renders the estimate for CLI output.
func (e *StrategyEstimate) String() string {
	return fmt.Sprintf(
		"n=%d chunk=%.0fB bottleneck m=%d: algorithm-level %.3fms, stage-level %.3fms, task-level %.3fms",
		e.MicroBatches, e.ChunkBytes, e.TasksOnBottleneck,
		e.TAlgorithm*1e3, e.TStage*1e3, e.TTask*1e3)
}

// EstimateStrategies evaluates Eq. 3–5 for the algorithm underlying g
// when transferring bufferBytes per rank with the given target chunk
// size, over the simulator's micro-batch geometry (simcost.PlanFor).
func EstimateStrategies(g *dag.Graph, bufferBytes, chunkBytes int64) (*StrategyEstimate, error) {
	plan := simcost.PlanFor(bufferBytes, chunkBytes, g.Algo.NChunks)
	n := float64(plan.NMicroBatches)
	t := g.Topo

	est := &StrategyEstimate{
		MicroBatches: plan.NMicroBatches,
		ChunkBytes:   plan.ChunkBytes,
	}

	// Eq. 5 — task-level: n passes of the bottleneck link's serialized
	// work (residual bubbles omitted).
	est.TTask, est.Bottleneck = talloc.LinkWindowFloor(g, 1, plan.ChunkBytes, plan.NMicroBatches)
	est.TasksOnBottleneck = len(g.LinkTasks.Row(int(est.Bottleneck)))

	// Eq. 3 — algorithm-level: every micro-batch pays the full
	// dependency-and-link-serialized makespan (the bubbles B_j are the
	// gap between the makespan and the bottleneck link's busy time): the
	// §4.4 list schedule of one micro-batch.
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	perMB := talloc.Timeline(g, order, 1, plan.ChunkBytes, 1).Makespan
	interp := 2 * t.InterpCost.Seconds() // baselines interpret both sides
	est.TAlgorithm = n * (perMB + interp*float64(maxTasksPerLinkPath(g)))

	// Eq. 4 — stage-level: stages pipeline across micro-batches, so the
	// steady state is bound by the slowest stage's bottleneck link, with
	// the Eq. 1 penalty for the z_k channels that overlap on it
	// (duplicated intra channels and adjacent pipelined stages).
	stageTime := 0.0
	nStages := g.Algo.NStages()
	for k := 0; k < nStages; k++ {
		worst := 0.0
		for l := range g.LinkTasks.Len() {
			bt := 0.0
			for _, t := range g.LinkTasks.Row(l) {
				if g.Algo.StageOf(g.Tasks[t].Step) == k {
					bt += (g.Path(t).InstanceCost(1, plan.ChunkBytes) + interp) / float64(max(g.LinkWindows[l], 1))
				}
			}
			worst = max(worst, bt)
		}
		// Two channels (the duplicated intra stage or the neighbouring
		// pipelined stage) overlap on the stage's links at steady state:
		// per Eq. 4 each task's transfer is stretched by the sharing
		// factor z_k and the γ·L(z_k) contention term.
		z := 2.0
		over := z - 1
		if over > 1 {
			over = 1
		}
		penalty := 1 + t.Gamma*over*over
		if st := worst * z * penalty; st > stageTime {
			stageTime = st
		}
	}
	est.TStage = n * stageTime

	return est, nil
}

// maxTasksPerLinkPath returns the largest per-link task count — the
// number of interpreter invocations serialized on the bottleneck.
func maxTasksPerLinkPath(g *dag.Graph) int {
	m := 0
	for l := range g.LinkTasks.Len() {
		m = max(m, len(g.LinkTasks.Row(l)))
	}
	return m
}
