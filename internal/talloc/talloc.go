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

// EstimateWindows produces the timeline analysis of §4.4 for a scheduled
// pipeline, given the chunk size and micro-batch count the plan will run
// with: dag.Graph.Timeline over the pipeline's order with unscaled α and
// payload bytes on the wire (sched.Pipeline.Timeline at the defaults).
func EstimateWindows(p *sched.Pipeline, chunkBytes int, nMB int) *dag.Windows {
	return p.Graph.Timeline(p.Order, 1, float64(chunkBytes), nMB)
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
	ID   int
	Rank ir.Rank
	// Prefix starts the TB's label: the channel, instance or stage group
	// of the task partition that ConnectionBased allocated it for
	// ("ch1/", "stage2/"); empty otherwise.
	Prefix    string
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

func (ix *endpointIndex) endpoint(e int32) Endpoint {
	return Endpoint{Conn: ix.g.Connection(int(e / 2)), Side: Side(e % 2)}
}

func (ix *endpointIndex) tasksOf(e int32) []ir.TaskID { return ix.tasks.Row(int(e / 2)) }

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

// Part is one group of a task partition: a channel, instance or stage
// group of a baseline backend, whose tasks get their own thread blocks.
type Part struct {
	Prefix string
	Tasks  []ir.TaskID
}

// ConnectionBased implements the baseline allocation: within each part,
// one TB per endpoint (connection and side) the part's tasks use,
// regardless of activity. TBs run in (part, Src, Dst, Side) order and
// carry their part's prefix. The parts partition g's tasks; a task left
// out of every part keeps TB −1 on both sides, which Validate rejects.
func ConnectionBased(g *dag.Graph, parts []Part) *Assignment {
	a := &Assignment{SendTB: make([]int, len(g.Tasks)), RecvTB: make([]int, len(g.Tasks))}
	for t := range g.Tasks {
		a.SendTB[t], a.RecvTB[t] = -1, -1
	}
	// sendTB[c] is connection c's send TB in the latest part that uses
	// it, its recv TB the next one; a value below the current part's
	// first TB marks c unseen in this part.
	sendTB := make([]int, len(g.ConnPaths))
	for c := range sendTB {
		sendTB[c] = -1
	}
	var conns []int
	var eps []Endpoint
	for _, part := range parts {
		first := len(a.TBs)
		conns = conns[:0]
		for _, t := range part.Tasks {
			if c := int(g.Conn[t]); sendTB[c] < first {
				sendTB[c] = first
				conns = append(conns, c)
			}
		}
		slices.Sort(conns)
		for _, c := range conns {
			sendTB[c] = len(a.TBs)
			send := Endpoint{Conn: g.Connection(c), Side: SideSend}
			recv := Endpoint{Conn: send.Conn, Side: SideRecv}
			eps = append(eps, send, recv)
			a.TBs = append(a.TBs,
				TB{ID: len(a.TBs), Rank: send.Rank(), Prefix: part.Prefix},
				TB{ID: len(a.TBs) + 1, Rank: recv.Rank(), Prefix: part.Prefix})
		}
		for _, t := range part.Tasks {
			a.SendTB[t] = sendTB[g.Conn[t]]
			a.RecvTB[t] = a.SendTB[t] + 1
		}
	}
	for i := range a.TBs {
		a.TBs[i].Endpoints = eps[i : i+1 : i+1]
	}
	return a
}

// StateBased implements ResCCL's flexible allocation: per rank,
// endpoints whose activity intervals never overlap are merged onto one
// TB (greedy interval partitioning, which is optimal for interval
// graphs). The merged TB executes the endpoints' primitives in timeline
// order, so overall execution time is unaffected. An endpoint's
// activity is the merged union of its connection's task windows.
func StateBased(p *sched.Pipeline, w *dag.Windows) *Assignment {
	ix := &endpointIndex{g: p.Graph, tasks: p.Graph.ByConn(p.Order)}
	// Visit endpoints rank by rank, each rank's by first activity (ties
	// in (Src, Dst, Side) order), and greedily pack each into the rank's
	// first TB with no interval overlap. rankTBs holds the current
	// rank's TB activity; its rows are reused across ranks.
	order := make([]int32, 2*ix.tasks.Len())
	for e := range order {
		order[e] = int32(e)
	}
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
	var rankTBs [][]dag.Interval
	var iv []dag.Interval
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
func mergeIntervals(ivs []dag.Interval) []dag.Interval {
	if len(ivs) <= 1 {
		return ivs
	}
	slices.SortFunc(ivs, func(a, b dag.Interval) int { return cmp.Compare(a.Start, b.Start) })
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
func intervalsOverlap(a, b []dag.Interval) bool {
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
