package core

import (
	"container/heap"
	"fmt"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// StrategyEstimate holds the analytic completion-time estimates of
// §3's three execution granularities (Eq. 3–5) for one algorithm on one
// topology — the model ResCCL's design argument is built on.
//
// TAlgorithm is an estimate (bubbles folded into the per-micro-batch
// critical path); TStage and TTask are steady-state bounds: TStage
// includes the Eq. 1 contention term γ·L(z) for stage channels that
// overlap on the bottleneck link, TTask omits residual bubbles and is
// therefore a lower bound the simulator should approach from above.
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
// size.
func EstimateStrategies(g *dag.Graph, bufferBytes, chunkBytes int64) (*StrategyEstimate, error) {
	// Micro-batch geometry, mirroring sim.PlanFor: the buffer divides
	// into NChunks chunks per micro-batch and the chunk shrinks so that
	// n·chunk·NChunks covers the buffer exactly.
	if bufferBytes <= 0 {
		bufferBytes = 1
	}
	if chunkBytes <= 0 {
		chunkBytes = simcost.DefaultChunkBytes
	}
	perMBBytes := chunkBytes * int64(g.Algo.NChunks)
	nMB := int((bufferBytes + perMBBytes - 1) / perMBBytes)
	if nMB < 1 {
		nMB = 1
	}
	effChunk := float64(bufferBytes) / (float64(nMB) * float64(g.Algo.NChunks))
	n := float64(nMB)
	t := g.Topo

	est := &StrategyEstimate{
		MicroBatches: nMB,
		ChunkBytes:   effChunk,
	}

	// Per-task single-chunk duration at full link rate (β = 1/linkBW).
	dur := make([]float64, len(g.Tasks))
	for i, task := range g.Tasks {
		p := g.Path(task.ID)
		dur[i] = p.Alpha.Seconds() + effChunk/p.TBCap
	}

	// Per-link load (m_e) and the bottleneck: link busy time per
	// micro-batch = Σ tasks' durations on it.
	bottleneckTime := 0.0
	for l := range g.LinkTasks.Len() {
		tasks := g.LinkTasks.Row(l)
		bt := 0.0
		for _, t := range tasks {
			bt += dur[t] / float64(max(g.LinkWindows[l], 1))
		}
		if bt > bottleneckTime {
			bottleneckTime, est.Bottleneck, est.TasksOnBottleneck = bt, topo.LinkID(l), len(tasks)
		}
	}

	// Eq. 5 — task-level: one-time load plus n passes of the bottleneck
	// link's serialized work (residual bubbles omitted: lower bound).
	est.TTask = t.KernelLoad.Seconds() + n*bottleneckTime

	// Eq. 3 — algorithm-level: every micro-batch pays the full
	// dependency-and-link-serialized makespan (the bubbles B_j are the
	// gap between the makespan and the bottleneck link's busy time).
	perMB, err := makespanOneMB(g, dur)
	if err != nil {
		return nil, err
	}
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
					bt += (dur[t] + interp) / float64(max(g.LinkWindows[l], 1))
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

// makespanOneMB list-schedules a single micro-batch: tasks start when
// their dependencies finish and a slot in each of their links' windows
// frees up; the result is the per-iteration time of lazy execution.
func makespanOneMB(g *dag.Graph, dur []float64) (float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]float64, len(g.Tasks))
	// Per link, a min-heap of the window slots' free times.
	slots := make([]*floatHeap, len(g.LinkWindows))
	makespan := 0.0
	for _, t := range order {
		start := 0.0
		for _, d := range g.Deps.Row(int(t)) {
			if finish[d] > start {
				start = finish[d]
			}
		}
		for _, l := range g.Links(t) {
			h := slots[l]
			if h == nil {
				w := g.LinkWindows[l]
				if w < 1 {
					w = 1
				}
				h = &floatHeap{}
				for i := 0; i < w; i++ {
					heap.Push(h, 0.0)
				}
				slots[l] = h
			}
			if free := (*h)[0]; free > start {
				start = free
			}
		}
		end := start + dur[t]
		finish[t] = end
		for _, l := range g.Links(t) {
			h := slots[l]
			heap.Pop(h)
			heap.Push(h, end)
		}
		if end > makespan {
			makespan = end
		}
	}
	return makespan, nil
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

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
