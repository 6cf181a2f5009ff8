// Package dag performs the global dependency analysis of §4.1: it turns
// an ir.Algorithm into a dependency DAG whose vertices are transmission
// tasks and whose edges are data dependencies, and annotates every task
// with the communication links it occupies so the scheduler can honour
// communication dependencies (§3).
//
// Because different chunks live at isolated buffer addresses, data
// dependencies only ever connect tasks of the same chunk; the DAG
// decomposes into per-chunk sub-DAGs (the G[C] of Algorithm 1).
//
// The graph is flat and index-based, and it stores each fact once.
// Tasks, chunks, links and connections are dense integer IDs. Each
// per-ID list (Deps, Dependents, ChunkTasks, LinkTasks) is a CSR: one
// offsets array and one flat item array, built by count, then fill, and
// read through CSR.Row. A path is stored once per connection, and a
// task reaches its path through the task→connection index (Path,
// Links). Later passes read these rows in place instead of rebuilding
// per-task maps.
package dag

import (
	"fmt"
	"slices"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// Graph is the analysed form of an algorithm.
type Graph struct {
	Algo *ir.Algorithm
	Topo *topo.Topology

	// Tasks is dense by TaskID in deterministic (step, chunk, src, dst)
	// order.
	Tasks []ir.Task

	// Deps row t lists the tasks t data-depends on, ascending: they
	// must complete their invocation for a micro-batch before t runs
	// for that same micro-batch (§3 rule 1). Dependents is the reverse
	// adjacency.
	Deps       CSR
	Dependents CSR

	// ConnPaths[c] is the network path of connection c. Connections are
	// the distinct (Src, Dst) pairs of the tasks, numbered densely in
	// (Src, Dst) order, and Conn[t] is task t's connection: all tasks of
	// one connection share one path. Path and Links read a task's path
	// and communication links through this index.
	ConnPaths []topo.Path
	Conn      []int32

	// ChunkTasks row c lists the tasks of chunk c in ascending step
	// order — the per-chunk sub-DAG G[C] that HPDS iterates over.
	ChunkTasks CSR

	// LinkTasks row l lists the tasks on communication link l in
	// ascending ID order, for link-load statistics and priority
	// seeding. It has one row per topology resource, empty for
	// resources no task uses as a link.
	LinkTasks CSR

	// LinkWindows[l] is the number of tasks that may occupy link l
	// concurrently before aggregate TB capability exceeds the link's
	// bandwidth (Fig. 4). Scheduling beyond the window creates a
	// communication dependency. Dense by LinkID; 0 for unused resources.
	LinkWindows []int
}

// InitiallyHolds reports whether, before the collective starts, rank r's
// buffer already contains valid data for chunk c under operator op with
// nRanks ranks and nChunks chunks per rank.
//
//   - AllGather: rank r contributes only its own chunks (chunk c lives
//     on rank c mod nRanks).
//   - Broadcast: only the root (rank 0) holds valid data.
//   - AllToAll: with nChunks = nRanks², chunk s·nRanks+d starts at its
//     source rank s.
//   - AllReduce / ReduceScatter: every rank holds a local copy of every
//     chunk (its own contribution to the reduction).
func InitiallyHolds(op ir.OpType, r ir.Rank, c ir.ChunkID, nRanks, nChunks int) bool {
	_ = nChunks // the precondition depends only on the rank count
	return initiallyHolds(op, r, c, nRanks)
}

// AlgoHolds is InitiallyHolds with the algorithm's Initial override
// applied: repair plans carry an explicit precondition matrix describing
// what a partially executed collective already delivered.
func AlgoHolds(a *ir.Algorithm, r ir.Rank, c ir.ChunkID) bool {
	if a.Initial != nil {
		return a.Initial[r][c]
	}
	return initiallyHolds(a.Op, r, c, a.NRanks)
}

func initiallyHolds(op ir.OpType, r ir.Rank, c ir.ChunkID, nRanks int) bool {
	switch op {
	case ir.OpAllGather:
		return int(c)%nRanks == int(r)
	case ir.OpBroadcast:
		return r == 0 // only the root holds valid data
	case ir.OpAllToAll:
		return int(c)/nRanks == int(r)
	case ir.OpAllReduce, ir.OpReduceScatter:
		return true
	default:
		return true
	}
}

// Build analyses algo on t and returns its dependency graph. It rejects
// invalid algorithms (ir.Algorithm.Validate), algorithms with
// write-write or read-write hazards at the same step (ambiguous
// ordering) and reads of chunks a rank cannot yet hold — all indicate
// an incorrect plan.
func Build(algo *ir.Algorithm, t *topo.Topology) (*Graph, error) {
	order, err := algo.Canonical()
	if err != nil {
		return nil, err
	}
	return BuildCanonical(algo, order, t)
}

// BuildCanonical is Build for a caller that already holds algo's
// validated transfer order, order = algo.Canonical(): the compile
// pipeline validates and orders an algorithm once for both its
// correctness gate and this analysis.
func BuildCanonical(algo *ir.Algorithm, order []int32, t *topo.Topology) (*Graph, error) {
	if algo.NRanks != t.NRanks() {
		return nil, fmt.Errorf("dag: algorithm %q has %d ranks but topology has %d",
			algo.Name, algo.NRanks, t.NRanks())
	}

	// Tasks in (step, chunk, src, dst) order; validation rejected equal
	// keys, so the order is total.
	n := len(order)
	g := &Graph{Algo: algo, Topo: t, Tasks: make([]ir.Task, n)}
	for i, at := range order {
		g.Tasks[i] = ir.Task{ID: ir.TaskID(i), Transfer: algo.Transfers[at]}
	}

	// The data dependencies read only Tasks and write only Deps and
	// Dependents, so they are derived beside the link annotations.
	if err := Join(g.buildDataDeps, func() error { g.annotateLinks(); return nil }); err != nil {
		return nil, err
	}
	return g, nil
}

// annotateLinks fills everything but the data dependencies from Tasks:
// ConnPaths, Conn, LinkWindows and the ChunkTasks and LinkTasks rows.
func (g *Graph) annotateLinks() {
	t := g.Topo
	firsts := g.indexConns()
	g.ConnPaths, g.LinkWindows = make([]topo.Path, len(firsts)), make([]int, t.NResources())
	for c, first := range firsts {
		p := t.Path(g.Tasks[first].Src, g.Tasks[first].Dst)
		g.ConnPaths[c] = p
		for _, l := range p.CommLinks {
			if w := t.LinkWindow(l, p.TBCap); g.LinkWindows[l] == 0 || w < g.LinkWindows[l] {
				g.LinkWindows[l] = w
			}
		}
	}

	// Count, then fill the per-chunk and per-link rows.
	g.ChunkTasks, g.LinkTasks = newCSR(g.Algo.NChunks), newCSR(t.NResources())
	for i, task := range g.Tasks {
		g.ChunkTasks.Off[task.Chunk+1]++
		for _, l := range g.Links(ir.TaskID(i)) {
			g.LinkTasks.Off[l+1]++
		}
	}
	g.ChunkTasks.counted()
	g.LinkTasks.counted()
	for i, task := range g.Tasks {
		g.ChunkTasks.place(int(task.Chunk), task.ID)
		for _, l := range g.Links(ir.TaskID(i)) {
			g.LinkTasks.place(int(l), task.ID)
		}
	}
	g.ChunkTasks.filled()
	g.LinkTasks.filled()
}

// indexConns numbers the tasks' distinct connections densely in
// (Src, Dst) order into Conn and returns the first task of each.
func (g *Graph) indexConns() (firsts []ir.TaskID) {
	at := make([]int32, len(g.Tasks))
	for i := range at {
		at[i] = int32(i)
	}
	ir.RadixSort(at,
		func(i int32) int { return int(g.Tasks[i].Src) },
		func(i int32) int { return int(g.Tasks[i].Dst) })
	g.Conn = make([]int32, len(g.Tasks))
	c := int32(-1)
	for k, i := range at {
		if k == 0 || g.conn(ir.TaskID(i)) != g.conn(ir.TaskID(at[k-1])) {
			c++
		}
		g.Conn[i] = c
	}
	firsts = make([]ir.TaskID, c+1)
	for i := len(g.Conn) - 1; i >= 0; i-- {
		firsts[g.Conn[i]] = ir.TaskID(i)
	}
	return firsts
}

func (g *Graph) conn(t ir.TaskID) topo.Connection {
	return topo.Connection{Src: g.Tasks[t].Src, Dst: g.Tasks[t].Dst}
}

// Connection returns connection c's endpoints.
func (g *Graph) Connection(c int) topo.Connection {
	return topo.Connection{Src: g.ConnPaths[c].Src, Dst: g.ConnPaths[c].Dst}
}

// Path returns task t's network path, shared by its connection.
func (g *Graph) Path(t ir.TaskID) *topo.Path { return &g.ConnPaths[g.Conn[t]] }

// Links returns the resources of task t's path whose sharing constitutes
// a communication dependency (topo.Path.CommLinks).
func (g *Graph) Links(t ir.TaskID) []topo.LinkID { return g.ConnPaths[g.Conn[t]].CommLinks }

// ByConn groups tasks by connection in one stable counting pass: row c
// of the result lists connection c's members of tasks in their order
// there. It has one row per connection; a connection none of the tasks
// use has an empty row.
func (g *Graph) ByConn(tasks []ir.TaskID) CSR {
	rows := newCSR(len(g.ConnPaths))
	for _, t := range tasks {
		rows.Off[g.Conn[t]+1]++
	}
	rows.counted()
	for _, t := range tasks {
		rows.place(int(g.Conn[t]), t)
	}
	rows.filled()
	return rows
}

// buildDataDeps derives data-dependency edges from buffer hazards: for
// every (rank, chunk) location, order accesses by step; a read depends on
// the last preceding write, a write depends on the last preceding write
// and every read since it (anti-dependency: the old value must have been
// forwarded before it is overwritten or reduced into).
func (g *Graph) buildDataDeps() error {
	algo := g.Algo
	// An access is task<<1 | write: the task reads its source's copy of
	// the chunk (write 0) or writes its destination's (write 1). Listed
	// in (step, reads first, task) order and then stably placed by
	// location, each location's history is one contiguous run in
	// program order.
	accs := make([]int32, 0, 2*len(g.Tasks))
	for lo := 0; lo < len(g.Tasks); {
		hi := lo + 1
		for hi < len(g.Tasks) && g.Tasks[hi].Step == g.Tasks[lo].Step {
			hi++
		}
		for id := lo; id < hi; id++ {
			accs = append(accs, int32(id)<<1)
		}
		for id := lo; id < hi; id++ {
			accs = append(accs, int32(id)<<1|1)
		}
		lo = hi
	}
	rankOf := func(a int32) ir.Rank {
		if a&1 == 0 {
			return g.Tasks[a>>1].Src
		}
		return g.Tasks[a>>1].Dst
	}
	step := func(a int32) ir.Step { return g.Tasks[a>>1].Step }
	ir.RadixSort(accs,
		func(a int32) int { return int(rankOf(a)) },
		func(a int32) int { return int(g.Tasks[a>>1].Chunk) })

	// Edges are packed from<<32 | on. A read adds one edge (its last
	// write), a write one plus one per read since its last write: at
	// most 3n.
	edges := make([]uint64, 0, 3*len(g.Tasks))
	dep := func(from, on int32) { edges = append(edges, uint64(from>>1)<<32|uint64(on>>1)) }
	for lo := 0; lo < len(accs); {
		rank, chunk := rankOf(accs[lo]), g.Tasks[accs[lo]>>1].Chunk
		hi := lo + 1
		for hi < len(accs) && rankOf(accs[hi]) == rank && g.Tasks[accs[hi]>>1].Chunk == chunk {
			hi++
		}
		loc := accs[lo:hi]
		lo = hi
		lastWrite, run := -1, 0 // run: first access of the current step
		for i, a := range loc {
			if step(a) != step(loc[run]) {
				run = i
			}
			if a&1 == 0 {
				if lastWrite >= 0 {
					dep(a, loc[lastWrite])
				} else if !AlgoHolds(algo, rank, chunk) {
					return fmt.Errorf(
						"dag: algorithm %q: task %v reads chunk %d at rank %d before any task delivers it and rank %d does not initially hold it",
						algo.Name, g.Tasks[a>>1].Transfer, chunk, rank, rank)
				}
				continue
			}
			// A write shares its step with no other access of the location.
			if other := run; other < i || (i+1 < len(loc) && step(loc[i+1]) == step(a)) {
				if other == i {
					other = i + 1
				}
				return fmt.Errorf(
					"dag: algorithm %q: tasks %v and %v access rank %d chunk %d at the same step %d with a write — ordering is ambiguous",
					algo.Name, g.Tasks[a>>1].Transfer, g.Tasks[loc[other]>>1].Transfer, rank, chunk, step(a))
			}
			if lastWrite >= 0 {
				dep(a, loc[lastWrite])
			}
			for _, r := range loc[lastWrite+1 : i] { // the reads since the last write
				dep(a, r)
			}
			lastWrite = i
		}
	}

	// Dependents transposes Deps: visiting dependents in ascending
	// order fills each row ascending.
	g.Deps = g.adjacency(edges)
	g.Dependents = newCSR(len(g.Tasks))
	for _, on := range g.Deps.Items {
		g.Dependents.Off[on+1]++
	}
	g.Dependents.counted()
	for from := range g.Tasks {
		for _, on := range g.Deps.Row(from) {
			g.Dependents.place(int(on), ir.TaskID(from))
		}
	}
	g.Dependents.filled()
	return nil
}

// adjacency turns packed from<<32 | to task pairs into one row per task
// listing its distinct targets in ascending order: rows are counted and
// filled, then each (tiny) row is sorted and de-duplicated in place and
// the rows are packed to close the gaps duplicates leave.
func (g *Graph) adjacency(pairs []uint64) CSR {
	rows := newCSR(len(g.Tasks))
	for _, p := range pairs {
		rows.Off[p>>32+1]++
	}
	rows.counted()
	for _, p := range pairs {
		rows.place(int(p>>32), ir.TaskID(uint32(p)))
	}
	rows.filled()
	n := int32(0) // packed length so far; row i's old start is read before it is moved
	for i := range g.Tasks {
		row := rows.Items[rows.Off[i]:rows.Off[i+1]]
		slices.Sort(row)
		rows.Off[i] = n
		n += int32(copy(rows.Items[n:], slices.Compact(row)))
	}
	rows.Off[len(g.Tasks)] = n
	rows.Items = rows.Items[:n]
	return rows
}

// WindowPreds returns every task's link-window predecessors when tasks
// occupy links in pipeline order (order lists tasks by position, each
// at most once; unlisted tasks occupy no link): on link l the i-th task
// waits until the (i−LinkWindows[l])-th has drained, so at most
// LinkWindows[l] tasks drive the link at once (the Fig. 4 saturation
// window). Rows are ascending and duplicate-free. The TB allocator's
// timeline and kernel lowering both serialize links this way.
func (g *Graph) WindowPreds(order []ir.TaskID) CSR {
	// Each link's listed tasks in pipeline order: link l's run starts
	// at LinkTasks.Off[l] and ends at next[l].
	start, n := g.LinkTasks.Off, 0
	for l := range g.LinkTasks.Len() {
		n += max(int(start[l+1]-start[l])-max(g.LinkWindows[l], 1), 0)
	}
	onLink, next := make([]int32, len(g.LinkTasks.Items)), slices.Clone(start)
	for _, t := range order {
		for _, l := range g.Links(t) {
			onLink[next[l]] = int32(t)
			next[l]++
		}
	}
	pairs := make([]uint64, 0, n) // task<<32 | predecessor
	for l := range g.LinkTasks.Len() {
		row, w := onLink[start[l]:next[l]], max(g.LinkWindows[l], 1)
		for i := w; i < len(row); i++ {
			pairs = append(pairs, uint64(row[i])<<32|uint64(row[i-w]))
		}
	}
	return g.adjacency(pairs)
}

// NTasks returns the number of tasks in the graph.
func (g *Graph) NTasks() int { return len(g.Tasks) }

// InDegrees returns a fresh in-degree vector (number of data
// dependencies per task), for consumers that peel the DAG.
func (g *Graph) InDegrees() []int {
	in := make([]int, len(g.Tasks))
	for i := range in {
		in[i] = int(g.Deps.Off[i+1] - g.Deps.Off[i])
	}
	return in
}

// TopoOrder returns one valid topological order of the tasks or an error
// if the dependency graph has a cycle (which would deadlock execution;
// by construction edges follow increasing steps, so a cycle indicates a
// builder bug).
func (g *Graph) TopoOrder() ([]ir.TaskID, error) {
	in := g.InDegrees()
	queue := make([]ir.TaskID, 0, len(in))
	for i, d := range in {
		if d == 0 {
			queue = append(queue, ir.TaskID(i))
		}
	}
	order := make([]ir.TaskID, 0, len(in))
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, dep := range g.Dependents.Row(int(t)) {
			in[dep]--
			if in[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(order) != len(g.Tasks) {
		return nil, fmt.Errorf("dag: algorithm %q: dependency graph has a cycle (%d of %d tasks ordered)",
			g.Algo.Name, len(order), len(g.Tasks))
	}
	return order, nil
}
