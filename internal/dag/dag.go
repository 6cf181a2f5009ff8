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
// Paths, Links, LinkWindows and the ChunkTasks and LinkTasks rows.
func (g *Graph) annotateLinks() {
	n, t := len(g.Tasks), g.Topo
	g.Paths, g.LinkWindows = make([]topo.Path, n), make([]int, t.NResources())
	ids := make([]ir.TaskID, n)
	for i := range ids {
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
	perChunk, perLink := make([]int, g.Algo.NChunks), make([]int, t.NResources())
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
}

// Connections groups tasks by connection. It returns the tasks stably
// reordered so that each connection's run is contiguous, the distinct
// connections in (Src, Dst) order, and start, such that connection c's
// run is grouped[start[c]:start[c+1]].
func (g *Graph) Connections(tasks []ir.TaskID) (grouped []ir.TaskID, conns []topo.Connection, start []int32) {
	at := make([]int32, len(tasks)) // positions in tasks, grouped
	for i := range at {
		at[i] = int32(i)
	}
	ir.RadixSort(at,
		func(i int32) int { return int(g.Tasks[tasks[i]].Src) },
		func(i int32) int { return int(g.Tasks[tasks[i]].Dst) })
	grouped = make([]ir.TaskID, len(tasks))
	n := 0
	for k, i := range at {
		grouped[k] = tasks[i]
		if k == 0 || g.conn(grouped[k]) != g.conn(grouped[k-1]) {
			n++
		}
	}
	conns, start = make([]topo.Connection, 0, n), make([]int32, 0, n+1)
	for k, t := range grouped {
		if k == 0 || g.conn(t) != g.conn(grouped[k-1]) {
			conns = append(conns, g.conn(t))
			start = append(start, int32(k))
		}
	}
	return grouped, conns, append(start, int32(len(tasks)))
}

func (g *Graph) conn(t ir.TaskID) topo.Connection {
	return topo.Connection{Src: g.Tasks[t].Src, Dst: g.Tasks[t].Dst}
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
	counts := make([]int, len(g.Tasks))
	for _, row := range g.Deps {
		for _, on := range row {
			counts[on]++
		}
	}
	g.Dependents = Carve[ir.TaskID](counts)
	for from, row := range g.Deps {
		for _, on := range row {
			g.Dependents[on] = append(g.Dependents[on], ir.TaskID(from))
		}
	}
	return nil
}

// adjacency turns packed from<<32 | to task pairs into one row per task
// listing its distinct targets in ascending order: rows are counted,
// carved and filled, then each (tiny) row is sorted and de-duplicated
// and capped at its length.
func (g *Graph) adjacency(pairs []uint64) [][]ir.TaskID {
	counts := make([]int, len(g.Tasks))
	for _, p := range pairs {
		counts[p>>32]++
	}
	rows := Carve[ir.TaskID](counts)
	for _, p := range pairs {
		rows[p>>32] = append(rows[p>>32], ir.TaskID(uint32(p)))
	}
	for i, row := range rows {
		slices.Sort(row)
		row = slices.Compact(row)
		rows[i] = row[:len(row):len(row)]
	}
	return rows
}

// WindowPreds returns every task's link-window predecessors when tasks
// occupy links in pipeline order (order lists tasks by position, each
// at most once; unlisted tasks occupy no link): on link l the i-th task
// waits until the (i−LinkWindows[l])-th has drained, so at most
// LinkWindows[l] tasks drive the link at once (the Fig. 4 saturation
// window). Rows are ascending and duplicate-free. The TB allocator's
// timeline and kernel lowering both serialize links this way.
func (g *Graph) WindowPreds(order []ir.TaskID) [][]ir.TaskID {
	// Each link's listed tasks in pipeline order: link l's run is
	// onLink[start[l]:next[l]].
	n, start := 0, make([]int32, len(g.LinkTasks)+1)
	for l, tasks := range g.LinkTasks {
		n += max(len(tasks)-max(g.LinkWindows[l], 1), 0)
		start[l+1] = start[l] + int32(len(tasks))
	}
	onLink, next := make([]int32, start[len(g.LinkTasks)]), slices.Clone(start)
	for _, t := range order {
		for _, l := range g.Links[t] {
			onLink[next[l]] = int32(t)
			next[l]++
		}
	}
	pairs := make([]uint64, 0, n) // task<<32 | predecessor
	for l := range g.LinkTasks {
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
	for i := range g.Deps {
		in[i] = len(g.Deps[i])
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
