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
// The graph is flat and index-based: tasks, chunks and links are dense
// integer IDs, and each per-ID list (Deps, Dependents, ChunkTasks,
// LinkTasks) is rows of one backing array built by counting sort (see
// Carve). Rows are capacity-capped sub-slices (s[i:j:j]), so appending
// to one copies it instead of overwriting the next. Later passes read
// these rows in place instead of rebuilding per-task maps.
package dag

import (
	"cmp"
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

	// Deps[t] lists the tasks t data-depends on: they must complete
	// their invocation for a micro-batch before t runs for that same
	// micro-batch (§3 rule 1). Dependents is the reverse adjacency.
	Deps       [][]ir.TaskID
	Dependents [][]ir.TaskID

	// Paths[t] is the network path of task t; Links[t] is the subset of
	// path resources whose sharing constitutes a communication
	// dependency. Tasks of one connection share one path, and Links[t]
	// is its capacity-capped CommLinks.
	Paths []topo.Path
	Links [][]topo.LinkID

	// ChunkTasks[c] lists the tasks of chunk c in ascending step order —
	// the per-chunk sub-DAG G[C] that HPDS iterates over.
	ChunkTasks [][]ir.TaskID

	// LinkTasks[l] lists the tasks on communication link l in ascending
	// ID order, for link-load statistics and priority seeding. It is
	// dense by LinkID (one row per topology resource, nil for resources
	// no task uses as a link).
	LinkTasks [][]ir.TaskID

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

// Carve returns len(counts) empty rows of one backing array, row i
// with capacity exactly counts[i] (nil for 0). Filled by append to
// their counts, the rows are capacity-capped: appending to one later
// copies it rather than overwrite its neighbour. Count, carve, fill is
// how the compile pipeline builds every per-ID list.
func Carve[T any](counts []int) [][]T {
	total := 0
	for _, c := range counts {
		total += c
	}
	back := make([]T, total)
	out := make([][]T, len(counts))
	off := 0
	for i, c := range counts {
		if c > 0 {
			out[i] = back[off : off : off+c]
			off += c
		}
	}
	return out
}

// Build analyses algo on t and returns its dependency graph. It rejects
// algorithms with write-write or read-write hazards at the same step
// (ambiguous ordering) and reads of chunks a rank cannot yet hold —
// both indicate an incorrect plan.
func Build(algo *ir.Algorithm, t *topo.Topology) (*Graph, error) {
	if err := algo.Validate(); err != nil {
		return nil, err
	}
	if algo.NRanks != t.NRanks() {
		return nil, fmt.Errorf("dag: algorithm %q has %d ranks but topology has %d",
			algo.Name, algo.NRanks, t.NRanks())
	}

	// Tasks in (step, chunk, src, dst) order; Validate rejected equal
	// keys, so the order is total.
	n := len(algo.Transfers)
	g := &Graph{
		Algo:        algo,
		Topo:        t,
		Tasks:       make([]ir.Task, n),
		Paths:       make([]topo.Path, n),
		LinkWindows: make([]int, t.NResources()),
	}
	for i, tr := range algo.Transfers {
		g.Tasks[i].Transfer = tr
	}
	slices.SortFunc(g.Tasks, func(a, b ir.Task) int {
		return cmp.Or(cmp.Compare(a.Step, b.Step), cmp.Compare(a.Chunk, b.Chunk),
			cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	ids := make([]ir.TaskID, n)
	for i := range g.Tasks {
		g.Tasks[i].ID = ir.TaskID(i)
		ids[i] = ir.TaskID(i)
	}

	// Paths depend only on the connection: compute each once.
	byConn, conns, start := g.Connections(ids)
	for c, conn := range conns {
		p := t.Path(conn.Src, conn.Dst)
		for _, id := range byConn[start[c]:start[c+1]] {
			g.Paths[id] = p
		}
		for _, l := range p.CommLinks {
			if w := t.LinkWindow(l, p.TBCap); g.LinkWindows[l] == 0 || w < g.LinkWindows[l] {
				g.LinkWindows[l] = w
			}
		}
	}

	// Count, carve and fill the per-chunk and per-link rows.
	g.Links = make([][]topo.LinkID, n)
	perChunk, perLink := make([]int, algo.NChunks), make([]int, t.NResources())
	for i, task := range g.Tasks {
		g.Links[i] = g.Paths[i].CommLinks
		perChunk[task.Chunk]++
		for _, l := range g.Links[i] {
			perLink[l]++
		}
	}
	g.ChunkTasks, g.LinkTasks = Carve[ir.TaskID](perChunk), Carve[ir.TaskID](perLink)
	for i, task := range g.Tasks {
		g.ChunkTasks[task.Chunk] = append(g.ChunkTasks[task.Chunk], task.ID)
		for _, l := range g.Links[i] {
			g.LinkTasks[l] = append(g.LinkTasks[l], task.ID)
		}
	}

	if err := g.buildDataDeps(); err != nil {
		return nil, err
	}
	return g, nil
}

// Connections groups tasks by connection. It returns the tasks stably
// reordered so that each connection's run is contiguous, the distinct
// connections in (Src, Dst) order, and start, such that connection c's
// run is grouped[start[c]:start[c+1]].
func (g *Graph) Connections(tasks []ir.TaskID) (grouped []ir.TaskID, conns []topo.Connection, start []int32) {
	keys := make([]uint64, len(tasks)) // connection<<32 | position
	for i, t := range tasks {
		keys[i] = uint64(int(g.Tasks[t].Src)*g.Algo.NRanks+int(g.Tasks[t].Dst))<<32 | uint64(i)
	}
	slices.Sort(keys)
	n := 0
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			n++
		}
	}
	grouped, conns, start = make([]ir.TaskID, len(tasks)), make([]topo.Connection, 0, n), make([]int32, 0, n+1)
	for i, k := range keys {
		grouped[i] = tasks[uint32(k)]
		if i == 0 || k>>32 != keys[i-1]>>32 {
			conns = append(conns, topo.Connection{Src: g.Tasks[grouped[i]].Src, Dst: g.Tasks[grouped[i]].Dst})
			start = append(start, int32(i))
		}
	}
	return grouped, conns, append(start, int32(len(tasks)))
}

// access is one buffer touch for hazard analysis: task reads (write 0)
// or writes (write 1) chunk at rank in step.
type access struct{ rank, chunk, step, write, task int32 }

// buildDataDeps derives data-dependency edges from buffer hazards: for
// every (rank, chunk) location, order accesses by step; a read depends on
// the last preceding write, a write depends on the last preceding write
// and every read since it (anti-dependency: the old value must have been
// forwarded before it is overwritten or reduced into).
func (g *Graph) buildDataDeps() error {
	algo := g.Algo
	// One flat access array, sorted so each location's history is one
	// contiguous run in program order.
	accs := make([]access, 0, 2*len(g.Tasks))
	for _, task := range g.Tasks {
		c, s, id := int32(task.Chunk), int32(task.Step), int32(task.ID)
		accs = append(accs, access{int32(task.Src), c, s, 0, id}, access{int32(task.Dst), c, s, 1, id})
	}
	slices.SortFunc(accs, func(a, b access) int { // location, step, reads first, task
		switch {
		case a.rank != b.rank:
			return cmp.Compare(a.rank, b.rank)
		case a.chunk != b.chunk:
			return cmp.Compare(a.chunk, b.chunk)
		case a.step != b.step:
			return cmp.Compare(a.step, b.step)
		case a.write != b.write:
			return cmp.Compare(a.write, b.write)
		}
		return cmp.Compare(a.task, b.task)
	})

	// Edges are packed from<<32 | on, so sorting them orders Deps rows
	// by task and each row by dependency. A read adds one edge (its last
	// write), a write one plus one per read since its last write: at
	// most 3n.
	edges := make([]uint64, 0, 3*len(g.Tasks))
	dep := func(from, on int32) { edges = append(edges, uint64(from)<<32|uint64(on)) }
	for lo := 0; lo < len(accs); {
		hi := lo + 1
		for hi < len(accs) && accs[hi].rank == accs[lo].rank && accs[hi].chunk == accs[lo].chunk {
			hi++
		}
		loc := accs[lo:hi]
		lo = hi
		rank, chunk := ir.Rank(loc[0].rank), ir.ChunkID(loc[0].chunk)
		lastWrite, run := -1, 0 // run: first access of the current step
		for i, a := range loc {
			if a.step != loc[run].step {
				run = i
			}
			if a.write == 0 {
				if lastWrite >= 0 {
					dep(a.task, loc[lastWrite].task)
				} else if !AlgoHolds(algo, rank, chunk) {
					return fmt.Errorf(
						"dag: algorithm %q: task %v reads chunk %d at rank %d before any task delivers it and rank %d does not initially hold it",
						algo.Name, g.Tasks[a.task].Transfer, chunk, rank, rank)
				}
				continue
			}
			// A write shares its step with no other access of the location.
			if other := run; other < i || (i+1 < len(loc) && loc[i+1].step == a.step) {
				if other == i {
					other = i + 1
				}
				return fmt.Errorf(
					"dag: algorithm %q: tasks %v and %v access rank %d chunk %d at the same step %d with a write — ordering is ambiguous",
					algo.Name, g.Tasks[a.task].Transfer, g.Tasks[loc[other].task].Transfer, rank, chunk, a.step)
			}
			if lastWrite >= 0 {
				dep(a.task, loc[lastWrite].task)
			}
			for _, r := range loc[lastWrite+1 : i] { // the reads since the last write
				dep(a.task, r.task)
			}
			lastWrite = i
		}
	}

	// Deduplicated up front, edges keep their length through adjacency
	// and reverse in place into Dependents.
	slices.Sort(edges)
	edges = slices.Compact(edges)
	g.Deps = g.adjacency(edges)
	for i, e := range edges {
		edges[i] = e<<32 | e>>32
	}
	g.Dependents = g.adjacency(edges)
	return nil
}

// adjacency turns packed from<<32 | to task pairs into one row per task
// listing its distinct targets in ascending order. It sorts pairs in
// place.
func (g *Graph) adjacency(pairs []uint64) [][]ir.TaskID {
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	counts := make([]int, len(g.Tasks))
	for _, p := range pairs {
		counts[p>>32]++
	}
	rows := Carve[ir.TaskID](counts)
	for _, p := range pairs {
		rows[p>>32] = append(rows[p>>32], ir.TaskID(uint32(p)))
	}
	return rows
}

// WindowPreds returns every task's link-window predecessors when tasks
// occupy links in pipeline position order pos (a permutation): on link
// l the i-th task waits until the (i−LinkWindows[l])-th has drained, so
// at most LinkWindows[l] tasks drive the link at once (the Fig. 4
// saturation window). Rows are ascending and duplicate-free. The TB
// allocator's timeline and kernel lowering both serialize links this
// way.
func (g *Graph) WindowPreds(pos []int) [][]ir.TaskID {
	n := 0
	for l, tasks := range g.LinkTasks {
		n += max(len(tasks)-max(g.LinkWindows[l], 1), 0)
	}
	pairs := make([]uint64, 0, n) // task<<32 | predecessor
	var row []ir.TaskID
	for l, tasks := range g.LinkTasks {
		row = append(row[:0], tasks...)
		slices.SortFunc(row, func(a, b ir.TaskID) int { return cmp.Compare(pos[a], pos[b]) })
		w := max(g.LinkWindows[l], 1)
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
	for i := range g.Deps {
		in[i] = len(g.Deps[i])
	}
	return in
}

// SharesLink reports whether tasks a and b occupy at least one common
// communication link — the communication-dependency predicate comm(a,b)
// of §4.3. Link slices are tiny (1–2 entries) so the scan is linear.
func (g *Graph) SharesLink(a, b ir.TaskID) bool {
	for _, la := range g.Links[a] {
		for _, lb := range g.Links[b] {
			if la == lb {
				return true
			}
		}
	}
	return false
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
		for _, dep := range g.Dependents[t] {
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

// CriticalPathLen returns the length (in tasks) of the longest dependency
// chain — a lower bound on sequential depth used by reports and tests.
func (g *Graph) CriticalPathLen() int {
	order, err := g.TopoOrder()
	if err != nil {
		return -1
	}
	depth := make([]int, len(g.Tasks))
	longest := 0
	for _, t := range order {
		d := 1
		for _, on := range g.Deps[t] {
			if depth[on]+1 > d {
				d = depth[on] + 1
			}
		}
		depth[t] = d
		if d > longest {
			longest = d
		}
	}
	return longest
}
