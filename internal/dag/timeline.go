package dag

import (
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/simcost"
)

// Interval is a half-open activity window [Start, End) in seconds.
type Interval struct {
	Start, End float64
}

// Windows is the timeline analysis of §4.4: for every task, the time
// window during which its connection is active under task-level
// execution. Timeline computes it as a static list schedule over a
// pipeline order using the contention-free cost model (HPDS already
// separated link sharers into distinct sub-pipelines, so per-task
// bandwidth is the TB capability):
//
//	perInst(t)  = a·α(path) + wireChunk/TBCap(path)           // Path.InstanceCost
//	start(t)    = max(dep starts + their per-instance time,   // pipelining
//	                  link predecessors' total completion)    // link serialization
//	finish(t)   = max(start(t) + n·perInst(t),
//	                  dep finishes + perInst(t))              // per-µ-batch chaining
//
// This is the one implementation of the recurrence: HPDS's tie-break
// guard and the TB allocator read it through sched.Pipeline.Timeline,
// repair plans through talloc.EstimateWindows, and the static
// analyzer's feasibility bound and occupancy replay run it over the
// kernel's echoed pipeline order.
type Windows struct {
	// PerTask[t] is the estimated activity interval of task t across all
	// micro-batches.
	PerTask []Interval
	// PerInst[t] is the single-instance duration estimate.
	PerInst []float64
	// Makespan is the estimated completion time of the whole pipeline.
	Makespan float64
}

// The compile pipeline's timeline analysis, which guards the scheduler's
// tie-break and sizes the allocator's windows and the analyzer's
// feasibility bound, assumes a plan runs WindowMB micro-batches of
// WindowChunkBytes chunks.
const (
	WindowChunkBytes = simcost.DefaultChunkBytes
	WindowMB         = 8
)

// Timeline runs the §4.4 window recurrence over the tasks in pipeline
// position order, each listed at most once. alphaFactor scales each
// path's startup latency α and wireChunk is the bytes one instance puts
// on the wire (the protocol tier's scaling; 1 and the chunk size for the
// plain model); nMB is the micro-batch count. A dependency later in the
// order contributes nothing, so a corrupt kernel's echoed order yields
// an estimate rather than a panic.
//
// A task starts only once each link's sliding saturation window
// (LinkWindows) has a free slot: its link predecessors are
// WindowPreds(order), found here as the walk goes by keeping each
// link's tasks in order and looking back one window.
func (g *Graph) Timeline(order []ir.TaskID, alphaFactor, wireChunk float64, nMB int) *Windows {
	n := float64(nMB)
	w := &Windows{
		PerTask: make([]Interval, len(g.Tasks)),
		PerInst: make([]float64, len(g.Tasks)),
	}
	// Link l's tasks so far, in order, are onLink[row[l]:row[l]+seen[l]].
	row, seen := g.LinkTasks.Off, make([]int32, g.LinkTasks.Len())
	onLink := make([]int32, len(g.LinkTasks.Items))
	for _, t := range order {
		per := g.Path(t).InstanceCost(alphaFactor, wireChunk)
		w.PerInst[t] = per
		start := 0.0
		finish := 0.0
		for _, d := range g.Deps.Row(int(t)) {
			if s := w.PerTask[d].Start + w.PerInst[d]; s > start {
				start = s
			}
			if f := w.PerTask[d].End + per; f > finish {
				finish = f
			}
		}
		for _, l := range g.Links(t) {
			at := row[l] + seen[l]
			if win := int32(max(g.LinkWindows[l], 1)); seen[l] >= win {
				if e := w.PerTask[onLink[at-win]].End; e > start {
					start = e
				}
			}
			onLink[at] = int32(t)
			seen[l]++
		}
		if f := start + float64(n*per); f > finish {
			finish = f
		}
		w.PerTask[t] = Interval{Start: start, End: finish}
		if finish > w.Makespan {
			w.Makespan = finish
		}
	}
	return w
}
