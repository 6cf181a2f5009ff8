// Package talloc implements thread-block allocation (§4.4): the rigid
// connection-based strategy of existing backends (one TB per GPU peer
// connection and side) and ResCCL's flexible state-based strategy, which
// analyses the task pipeline's timeline and merges connections that are
// never active simultaneously onto a single TB.
package talloc

import (
	"fmt"
	"sort"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sched"
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
//	perInst(t)  = a·α(path) + wireChunk/TBCap(path)
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

// EstimateWindows produces the timeline analysis of §4.4 for a scheduled
// pipeline, given the chunk size and micro-batch count the plan will run
// with: Timeline over the pipeline's order with unscaled α and payload
// bytes on the wire.
func EstimateWindows(p *sched.Pipeline, chunkBytes int, nMB int) *Windows {
	return Timeline(p.Graph, p.OrderedTasks(), 1, float64(chunkBytes), nMB)
}

// Timeline runs the §4.4 window recurrence over the tasks in pipeline
// position order, each listed at most once. alphaFactor scales each
// path's startup latency α and wireChunk is the bytes one instance puts
// on the wire (the protocol tier's scaling; 1 and the chunk size for the
// plain model); nMB is the micro-batch count. A dependency later in the
// order contributes nothing, so a corrupt kernel's echoed order yields
// an estimate rather than a panic.
func Timeline(g *dag.Graph, order []ir.TaskID, alphaFactor, wireChunk float64, nMB int) *Windows {
	n := float64(nMB)
	w := &Windows{
		PerTask: make([]Interval, len(g.Tasks)),
		PerInst: make([]float64, len(g.Tasks)),
	}
	// Task history per link, in global position order: a task starts
	// only once the link's sliding saturation window (g.LinkWindows)
	// has a free slot, mirroring the kernel's link predecessors.
	linkHist := make(map[topo.LinkID][]ir.TaskID)
	for _, t := range order {
		path := g.Paths[t]
		per := path.Alpha.Seconds()*alphaFactor + wireChunk/path.TBCap
		w.PerInst[t] = per
		start := 0.0
		finish := 0.0
		for _, d := range g.Deps[t] {
			if s := w.PerTask[d].Start + w.PerInst[d]; s > start {
				start = s
			}
			if f := w.PerTask[d].End + per; f > finish {
				finish = f
			}
		}
		for _, l := range g.Links[t] {
			hist := linkHist[l]
			win := g.LinkWindows[l]
			if win < 1 {
				win = 1
			}
			if len(hist) >= win {
				prev := hist[len(hist)-win]
				if e := w.PerTask[prev].End; e > start {
					start = e
				}
			}
		}
		if f := start + n*per; f > finish {
			finish = f
		}
		w.PerTask[t] = Interval{Start: start, End: finish}
		if finish > w.Makespan {
			w.Makespan = finish
		}
		for _, l := range g.Links[t] {
			linkHist[l] = append(linkHist[l], t)
		}
	}
	return w
}

// TB is one allocated thread block: the endpoints it serves and its
// estimated activity intervals (sorted, non-overlapping).
type TB struct {
	ID        int
	Rank      ir.Rank
	Endpoints []Endpoint
	Intervals []Interval
}

// Assignment maps every task's two primitive sides to thread blocks.
type Assignment struct {
	// SendTB[t] and RecvTB[t] are TB IDs (indices into TBs) executing
	// task t's send and receive primitives.
	SendTB, RecvTB []int
	TBs            []*TB
	// PerRank[r] lists the TB IDs hosted on rank r.
	PerRank [][]int
}

// NTBs returns the total number of allocated thread blocks.
func (a *Assignment) NTBs() int { return len(a.TBs) }

// MaxPerRank returns the largest TB count on any single rank — the SM
// footprint metric of §5.4.
func (a *Assignment) MaxPerRank() int {
	m := 0
	for _, tbs := range a.PerRank {
		if len(tbs) > m {
			m = len(tbs)
		}
	}
	return m
}

// endpointTasks groups a pipeline's tasks by endpoint, preserving global
// scheduling order within each endpoint.
func endpointTasks(p *sched.Pipeline) map[Endpoint][]ir.TaskID {
	g := p.Graph
	by := make(map[Endpoint][]ir.TaskID)
	for _, t := range p.OrderedTasks() {
		task := g.Tasks[t]
		conn := topo.Connection{Src: task.Src, Dst: task.Dst}
		by[Endpoint{Conn: conn, Side: SideSend}] = append(by[Endpoint{Conn: conn, Side: SideSend}], t)
		by[Endpoint{Conn: conn, Side: SideRecv}] = append(by[Endpoint{Conn: conn, Side: SideRecv}], t)
	}
	return by
}

func sortedEndpoints(by map[Endpoint][]ir.TaskID) []Endpoint {
	eps := make([]Endpoint, 0, len(by))
	for e := range by {
		eps = append(eps, e)
	}
	sort.Slice(eps, func(i, j int) bool {
		a, b := eps[i], eps[j]
		if a.Conn.Src != b.Conn.Src {
			return a.Conn.Src < b.Conn.Src
		}
		if a.Conn.Dst != b.Conn.Dst {
			return a.Conn.Dst < b.Conn.Dst
		}
		return a.Side < b.Side
	})
	return eps
}

// ConnectionBased implements the baseline allocation: one TB per
// endpoint (connection and side), regardless of activity.
func ConnectionBased(p *sched.Pipeline, w *Windows) *Assignment {
	g := p.Graph
	by := endpointTasks(p)
	a := &Assignment{
		SendTB:  make([]int, len(g.Tasks)),
		RecvTB:  make([]int, len(g.Tasks)),
		PerRank: make([][]int, g.Algo.NRanks),
	}
	for _, ep := range sortedEndpoints(by) {
		tasks := by[ep]
		tb := &TB{ID: len(a.TBs), Rank: ep.Rank(), Endpoints: []Endpoint{ep}}
		tb.Intervals = mergeIntervals(taskIntervals(tasks, w))
		a.TBs = append(a.TBs, tb)
		a.PerRank[tb.Rank] = append(a.PerRank[tb.Rank], tb.ID)
		for _, t := range tasks {
			if ep.Side == SideSend {
				a.SendTB[t] = tb.ID
			} else {
				a.RecvTB[t] = tb.ID
			}
		}
	}
	return a
}

// StateBased implements ResCCL's flexible allocation: per rank,
// endpoints whose activity intervals never overlap are merged onto one
// TB (greedy interval partitioning, which is optimal for interval
// graphs). The merged TB executes the endpoints' primitives in timeline
// order, so overall execution time is unaffected.
func StateBased(p *sched.Pipeline, w *Windows) *Assignment {
	g := p.Graph
	by := endpointTasks(p)
	a := &Assignment{
		SendTB:  make([]int, len(g.Tasks)),
		RecvTB:  make([]int, len(g.Tasks)),
		PerRank: make([][]int, g.Algo.NRanks),
	}

	// Partition endpoints by rank; within a rank, sort by first activity
	// and greedily pack into the first TB with no interval overlap.
	perRank := make([][]Endpoint, g.Algo.NRanks)
	for _, ep := range sortedEndpoints(by) {
		perRank[ep.Rank()] = append(perRank[ep.Rank()], ep)
	}
	for r := range perRank {
		eps := perRank[r]
		ivs := make(map[Endpoint][]Interval, len(eps))
		for _, ep := range eps {
			ivs[ep] = mergeIntervals(taskIntervals(by[ep], w))
		}
		sort.SliceStable(eps, func(i, j int) bool {
			a, b := ivs[eps[i]], ivs[eps[j]]
			switch {
			case len(a) == 0:
				return false
			case len(b) == 0:
				return true
			case a[0].Start != b[0].Start:
				return a[0].Start < b[0].Start
			}
			return false
		})
		var rankTBs []*TB
		for _, ep := range eps {
			placed := false
			for _, tb := range rankTBs {
				if !intervalsOverlap(tb.Intervals, ivs[ep]) {
					tb.Endpoints = append(tb.Endpoints, ep)
					tb.Intervals = mergeIntervals(append(append([]Interval{}, tb.Intervals...), ivs[ep]...))
					placed = true
					assign(a, ep, by[ep], tb.ID)
					break
				}
			}
			if !placed {
				tb := &TB{ID: len(a.TBs), Rank: ir.Rank(r), Endpoints: []Endpoint{ep}}
				tb.Intervals = ivs[ep]
				a.TBs = append(a.TBs, tb)
				rankTBs = append(rankTBs, tb)
				a.PerRank[r] = append(a.PerRank[r], tb.ID)
				assign(a, ep, by[ep], tb.ID)
			}
		}
	}
	return a
}

func assign(a *Assignment, ep Endpoint, tasks []ir.TaskID, tbID int) {
	for _, t := range tasks {
		if ep.Side == SideSend {
			a.SendTB[t] = tbID
		} else {
			a.RecvTB[t] = tbID
		}
	}
}

func taskIntervals(tasks []ir.TaskID, w *Windows) []Interval {
	ivs := make([]Interval, 0, len(tasks))
	for _, t := range tasks {
		ivs = append(ivs, w.PerTask[t])
	}
	return ivs
}

// mergeIntervals sorts and coalesces overlapping/adjacent intervals.
func mergeIntervals(ivs []Interval) []Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
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
