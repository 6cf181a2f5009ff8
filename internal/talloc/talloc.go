// Package talloc implements thread-block allocation (§4.4): the rigid
// connection-based strategy of existing backends (one TB per GPU peer
// connection and side) and ResCCL's flexible state-based strategy, which
// analyses the task pipeline's timeline and merges connections that are
// never active simultaneously onto a single TB.
package talloc

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// Side distinguishes the two TBs involved in a connection: the sender's
// and the receiver's.
type Side int

// Connection sides.
const (
	SideSend Side = iota
	SideRecv
)

func (s Side) String() string {
	if s == SideSend {
		return "send"
	}
	return "recv"
}

// Endpoint is one rank-side of a connection — the unit of static TB
// assignment in connection-based backends.
type Endpoint struct {
	Conn topo.Connection
	Side Side
}

// Rank returns the GPU that hosts this endpoint's TB.
func (e Endpoint) Rank() ir.Rank {
	if e.Side == SideSend {
		return e.Conn.Src
	}
	return e.Conn.Dst
}

func (e Endpoint) String() string {
	return fmt.Sprintf("%s/%s", e.Conn, e.Side)
}

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
// This is the one implementation of the recurrence: the allocator reads
// it through EstimateWindows, and the static analyzer's feasibility
// bound and occupancy replay read it through Timeline with the
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

// The compile pipeline's timeline analysis, which sizes the allocator's
// windows and the analyzer's feasibility bound, assumes a plan runs
// WindowMB micro-batches of WindowChunkBytes chunks.
const (
	WindowChunkBytes = simcost.DefaultChunkBytes
	WindowMB         = 8
)

// EstimateWindows produces the timeline analysis of §4.4 for a scheduled
// pipeline, given the chunk size and micro-batch count the plan will run
// with: Timeline over the pipeline's order with unscaled α and payload
// bytes on the wire.
func EstimateWindows(p *sched.Pipeline, chunkBytes int, nMB int) *Windows {
	return Timeline(p.Graph, p.Order, 1, float64(chunkBytes), nMB)
}

// Timeline runs the §4.4 window recurrence over the tasks in pipeline
// position order, each listed at most once. alphaFactor scales each
// path's startup latency α and wireChunk is the bytes one instance puts
// on the wire (the protocol tier's scaling; 1 and the chunk size for the
// plain model); nMB is the micro-batch count. A dependency later in the
// order contributes nothing, so a corrupt kernel's echoed order yields
// an estimate rather than a panic.
//
// A task starts only once each link's sliding saturation window
// (g.LinkWindows) has a free slot: its link predecessors are
// g.WindowPreds(order), found here as the walk goes by keeping each
// link's tasks in order and looking back one window.
func Timeline(g *dag.Graph, order []ir.TaskID, alphaFactor, wireChunk float64, nMB int) *Windows {
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
		if f := start + n*per; f > finish {
			finish = f
		}
		w.PerTask[t] = Interval{Start: start, End: finish}
		if finish > w.Makespan {
			w.Makespan = finish
		}
	}
	return w
}

// LinkWindowFloor is the bottleneck link's window-serialised work,
// n · max_l Σ_{t on l} cost_t / LinkWindows[l] with cost_t the
// per-instance cost topo.Path.InstanceCost, and the link that attains
// it: Eq. 5's task-level time without the one-time load.
//
// It bounds every execution that enforces the link windows, which a
// ResCCL kernel does through its LinkPreds (g.WindowPreds): task i of
// link l's order waits for task i−W to finish all its instances, so l's
// tasks fall into W = LinkWindows[l] chains that each run one task at a
// time. A task's n instances run one after another on its thread block
// and each costs at least cost_t, so a chain takes at least n times its
// tasks' summed costs, and the longest chain at least the average,
// n·Σ cost_t / W. Baseline kernels admit any number of tasks onto a
// link and contend at run time, so the floor does not bound them.
func LinkWindowFloor(g *dag.Graph, alphaFactor, wireChunk float64, nMB int) (floor float64, bottleneck topo.LinkID) {
	for l := range g.LinkTasks.Len() {
		work := 0.0
		for _, t := range g.LinkTasks.Row(l) {
			work += g.Path(t).InstanceCost(alphaFactor, wireChunk)
		}
		if v := float64(nMB) * work / float64(max(g.LinkWindows[l], 1)); v > floor {
			floor, bottleneck = v, topo.LinkID(l)
		}
	}
	return floor, bottleneck
}

// TB is one allocated thread block and the endpoints it serves, in the
// order it serves them.
type TB struct {
	ID        int
	Rank      ir.Rank
	Endpoints []Endpoint
}

// Assignment maps every task's two primitive sides to thread blocks.
type Assignment struct {
	// SendTB[t] and RecvTB[t] are TB IDs (indices into TBs) executing
	// task t's send and receive primitives.
	SendTB, RecvTB []int
	TBs            []TB
}

// NTBs returns the total number of allocated thread blocks.
func (a *Assignment) NTBs() int { return len(a.TBs) }

// endpointIndex groups a pipeline's tasks by the graph's connections,
// which are numbered densely in (Src, Dst) order: row c of tasks lists
// connection c's tasks in global scheduling order. Endpoint e is side
// e%2 of connection e/2, so endpoint indices run in (Src, Dst, Side)
// order. The pipeline covers every task, so every connection has one.
type endpointIndex struct {
	g     *dag.Graph
	tasks dag.CSR
}

func indexEndpoints(p *sched.Pipeline) *endpointIndex {
	return &endpointIndex{g: p.Graph, tasks: p.Graph.ByConn(p.Order)}
}

func (ix *endpointIndex) endpoint(e int32) Endpoint {
	return Endpoint{Conn: ix.g.Connection(int(e / 2)), Side: Side(e % 2)}
}

func (ix *endpointIndex) tasksOf(e int32) []ir.TaskID { return ix.tasks.Row(int(e / 2)) }

// endpoints lists every endpoint index in (Src, Dst, Side) order.
func (ix *endpointIndex) endpoints() []int32 {
	es := make([]int32, 2*ix.tasks.Len())
	for e := range es {
		es[e] = int32(e)
	}
	return es
}

// assign builds the assignment that places endpoint e on TB tbOf[e],
// for TB IDs dense in [0, nTB). order lists every endpoint once; each
// TB serves its endpoints in that order. The TBs' endpoint lists are
// runs of one array, counted and filled in place.
func (ix *endpointIndex) assign(g *dag.Graph, order, tbOf []int32, nTB int) *Assignment {
	a := &Assignment{SendTB: make([]int, len(g.Tasks)), RecvTB: make([]int, len(g.Tasks)), TBs: make([]TB, nTB)}
	// end[tb+1] counts TB tb's endpoints; summed, end[tb] is where TB
	// tb's run starts, and it is the fill cursor until it reaches the
	// run's end.
	end := make([]int32, nTB+1)
	for _, e := range order {
		end[tbOf[e]+1]++
	}
	for tb := 1; tb <= nTB; tb++ {
		end[tb] += end[tb-1]
	}
	eps := make([]Endpoint, len(order))
	for _, e := range order {
		tb := tbOf[e]
		eps[end[tb]] = ix.endpoint(e)
		end[tb]++
		side := a.SendTB
		if Side(e%2) == SideRecv {
			side = a.RecvTB
		}
		for _, t := range ix.tasksOf(e) {
			side[t] = int(tb)
		}
	}
	lo := int32(0)
	for i := range a.TBs {
		hi := end[i]
		a.TBs[i] = TB{ID: i, Rank: eps[lo].Rank(), Endpoints: eps[lo:hi:hi]}
		lo = hi
	}
	return a
}

// ConnectionBased implements the baseline allocation: one TB per
// endpoint (connection and side), regardless of activity.
func ConnectionBased(p *sched.Pipeline) *Assignment {
	ix := indexEndpoints(p)
	es := ix.endpoints()
	return ix.assign(p.Graph, es, es, len(es))
}

// StateBased implements ResCCL's flexible allocation: per rank,
// endpoints whose activity intervals never overlap are merged onto one
// TB (greedy interval partitioning, which is optimal for interval
// graphs). The merged TB executes the endpoints' primitives in timeline
// order, so overall execution time is unaffected. An endpoint's
// activity is the merged union of its connection's task windows.
func StateBased(p *sched.Pipeline, w *Windows) *Assignment {
	ix := indexEndpoints(p)
	// Visit endpoints rank by rank, each rank's by first activity (ties
	// in (Src, Dst, Side) order), and greedily pack each into the rank's
	// first TB with no interval overlap. rankTBs holds the current
	// rank's TB activity; its rows are reused across ranks.
	order := ix.endpoints()
	rank := func(e int32) int { return int(ix.endpoint(e).Rank()) }
	first := make([]float64, ix.tasks.Len()) // each connection's first activity
	for c := range first {
		tasks := ix.tasks.Row(c)
		first[c] = w.PerTask[tasks[0]].Start
		for _, t := range tasks[1:] {
			first[c] = min(first[c], w.PerTask[t].Start)
		}
	}
	ir.RadixSort(order, rank)
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		for hi = lo + 1; hi < len(order) && rank(order[hi]) == rank(order[lo]); hi++ {
		}
		slices.SortFunc(order[lo:hi], func(a, b int32) int {
			return cmp.Or(cmp.Compare(first[a/2], first[b/2]), cmp.Compare(a, b))
		})
	}
	tbOf := make([]int32, len(order))
	var rankTBs [][]Interval
	var iv []Interval
	nTB := 0
	for i, e := range order {
		if i > 0 && ix.endpoint(e).Rank() != ix.endpoint(order[i-1]).Rank() {
			nTB, rankTBs = nTB+len(rankTBs), rankTBs[:0]
		}
		iv = iv[:0]
		for _, t := range ix.tasksOf(e) {
			iv = append(iv, w.PerTask[t])
		}
		iv = mergeIntervals(iv)
		j := 0
		for j < len(rankTBs) && intervalsOverlap(rankTBs[j], iv) {
			j++
		}
		if j == len(rankTBs) {
			rankTBs = slices.Grow(rankTBs, 1)[:j+1]
			rankTBs[j] = rankTBs[j][:0]
		}
		rankTBs[j] = mergeIntervals(append(rankTBs[j], iv...))
		tbOf[e] = int32(nTB + j)
	}
	return ix.assign(p.Graph, order, tbOf, nTB+len(rankTBs))
}

// mergeIntervals sorts and coalesces overlapping/adjacent intervals.
func mergeIntervals(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

// intervalsOverlap reports whether two sorted non-overlapping interval
// lists intersect.
func intervalsOverlap(a, b []Interval) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].End <= b[j].Start {
			i++
		} else if b[j].End <= a[i].Start {
			j++
		} else {
			return true
		}
	}
	return false
}

// Validate checks assignment invariants: every task has both sides
// assigned to TBs on the correct ranks, and (for state-based results)
// no TB serves two endpoints with overlapping activity.
func Validate(g *dag.Graph, a *Assignment) error {
	for t := range g.Tasks {
		task := g.Tasks[t]
		st, rt := a.SendTB[t], a.RecvTB[t]
		if st < 0 || st >= len(a.TBs) || rt < 0 || rt >= len(a.TBs) {
			return fmt.Errorf("talloc: task %d has out-of-range TB assignment (%d, %d)", t, st, rt)
		}
		if a.TBs[st].Rank != task.Src {
			return fmt.Errorf("talloc: task %d send TB %d on rank %d, want %d", t, st, a.TBs[st].Rank, task.Src)
		}
		if a.TBs[rt].Rank != task.Dst {
			return fmt.Errorf("talloc: task %d recv TB %d on rank %d, want %d", t, rt, a.TBs[rt].Rank, task.Dst)
		}
	}
	return nil
}
