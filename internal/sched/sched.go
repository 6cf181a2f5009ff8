// Package sched implements the primitive-level execution scheduling of
// §4.3: the Hierarchical Priority-based Dynamic Scheduling (HPDS)
// strategy of Algorithm 1 and the baseline policies it is evaluated
// against (round-robin, Fig. 10(b), and a sequential chunk-major policy
// used for ablations).
//
// A schedule is a task pipeline: an ordered list of sub-pipelines, each a
// set of tasks that are mutually free of communication dependencies — no
// link holds more tasks than its saturation window (Fig. 4), so the
// aggregate thread-block capability never exceeds any link's bandwidth —
// and whose data dependencies are satisfied by earlier positions. Under
// task-level execution every scheduled task then iterates across all
// micro-batches (§3).
package sched

import (
	"container/heap"
	"fmt"

	"github.com/resccl/resccl/internal/analyze/invariant"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
)

// Policy selects a scheduling strategy.
type Policy int

// Scheduling policies.
const (
	// PolicyHPDS is the paper's hierarchical priority-based dynamic
	// scheduling (Algorithm 1).
	PolicyHPDS Policy = iota
	// PolicyRR is the round-robin baseline of §5.3: chunks are visited
	// in an immutable circular ascending-ID order.
	PolicyRR
	// PolicySequential schedules chunks one at a time to exhaustion
	// (chunk-major). It is the weakest policy and exists for ablations.
	PolicySequential
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyHPDS:
		return "HPDS"
	case PolicyRR:
		return "RR"
	case PolicySequential:
		return "Sequential"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// SubPipeline is one modular unit of execution (the P_c of Algorithm 1):
// tasks that can be in flight concurrently because no link is loaded
// beyond its saturation window. Order within Tasks is the insertion
// order, which respects data dependencies.
type SubPipeline struct {
	Index int
	Tasks []ir.TaskID
}

// Pipeline is the global task pipeline P_r: the concatenation of
// sub-pipelines covering every task exactly once.
type Pipeline struct {
	Graph  *dag.Graph
	Policy Policy
	Subs   []SubPipeline
	// TaskSub[t] is the index of the sub-pipeline containing task t;
	// TaskPos[t] is t's global scheduling position (dense, increasing in
	// schedule order). Both are indexed by TaskID.
	TaskSub []int
	TaskPos []int
	// Order lists every task in global scheduling order, so
	// Order[TaskPos[t]] == t. Subs[i].Tasks is the i-th consecutive,
	// capacity-capped run of it.
	Order []ir.TaskID
	// LinkPreds is Graph.WindowPreds(Order): the link-window
	// predecessors that the TB allocator's timeline and the lowered
	// kernel both serialize on, computed once per schedule.
	LinkPreds dag.CSR
}

// Schedule builds the task pipeline for g under the given policy.
func Schedule(g *dag.Graph, policy Policy) (*Pipeline, error) {
	switch policy {
	case PolicyHPDS, PolicyRR, PolicySequential:
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", policy)
	}
	s := newScheduler(g, policy)
	p, err := s.run()
	if err != nil {
		return nil, err
	}
	if err := Validate(g, p); err != nil {
		return nil, fmt.Errorf("sched: %v produced an invalid pipeline: %w", policy, err)
	}
	p.LinkPreds = g.WindowPreds(p.Order)
	return p, nil
}

// TaskIDOrder is the unscheduled pipeline the baseline backends lower:
// g's tasks in ascending TaskID order, with no sub-pipelines and an
// empty link-predecessor row per task (baselines contend on links).
func TaskIDOrder(g *dag.Graph) *Pipeline {
	p := &Pipeline{Graph: g, Order: make([]ir.TaskID, len(g.Tasks)), LinkPreds: dag.CSR{Off: make([]int32, len(g.Tasks)+1)}}
	for t := range p.Order {
		p.Order[t] = ir.TaskID(t)
	}
	return p
}

// chunkState tracks one chunk's sub-DAG during scheduling.
type chunkState struct {
	chunk ir.ChunkID
	// ready holds tasks whose data dependencies are all scheduled.
	ready []ir.TaskID
	// remaining counts unscheduled tasks of this chunk.
	remaining int
	// priority orders the heap: larger is scheduled first. Seeded by
	// link-load (underutilized chunks first) and decremented every time
	// the chunk contributes to a sub-pipeline (Algorithm 1 line 20).
	priority int
	// flag is the F of Algorithm 1: false once the chunk cannot
	// contribute to the current sub-pipeline.
	flag bool
	// heapIdx is the chunk's position in the priority heap, -1 when out.
	heapIdx int
}

type scheduler struct {
	g      *dag.Graph
	policy Policy

	chunks []*chunkState
	// indeg is the remaining data-dependency count per task.
	indeg []int

	// usedLinks counts tasks of the current sub-pipeline per link
	// (dense by LinkID); a link may hold up to its window (Fig. 4
	// saturation point) before further tasks become
	// communication-dependent.
	usedLinks []int

	pq chunkHeap
	// rrNext is the circular cursor for PolicyRR.
	rrNext int
}

func newScheduler(g *dag.Graph, policy Policy) *scheduler {
	s := &scheduler{
		g:         g,
		policy:    policy,
		indeg:     g.InDegrees(),
		usedLinks: make([]int, len(g.LinkWindows)),
	}
	nChunks := g.Algo.NChunks
	s.chunks = make([]*chunkState, nChunks)
	for c := 0; c < nChunks; c++ {
		cs := &chunkState{chunk: ir.ChunkID(c), heapIdx: -1, flag: true}
		cs.remaining = len(g.ChunkTasks.Row(c))
		// Seed priority: chunks whose tasks touch lightly loaded links
		// (lower execution frequency) get higher priority so they are
		// interleaved early, spreading load across links (§4.3).
		load := 0
		for _, t := range g.ChunkTasks.Row(c) {
			for _, l := range g.Links(t) {
				load += len(g.LinkTasks.Row(int(l)))
			}
		}
		cs.priority = -load
		s.chunks[c] = cs
	}
	for t := range s.indeg {
		if s.indeg[t] == 0 {
			c := g.Tasks[t].Chunk
			s.chunks[c].ready = append(s.chunks[c].ready, ir.TaskID(t))
		}
	}
	return s
}

func (s *scheduler) run() (*Pipeline, error) {
	g := s.g
	p := &Pipeline{
		Graph:   g,
		Policy:  s.policy,
		TaskSub: make([]int, len(g.Tasks)),
		TaskPos: make([]int, len(g.Tasks)),
		Order:   make([]ir.TaskID, 0, len(g.Tasks)),
	}
	for i := range p.TaskSub {
		p.TaskSub[i] = -1
		p.TaskPos[i] = -1
	}
	scheduled := 0
	pos := 0
	total := len(g.Tasks)

	for scheduled < total {
		sub := SubPipeline{Index: len(p.Subs)}
		first := len(p.Order)
		s.beginRound()

		progressed := false
		for {
			cs := s.nextChunk()
			if cs == nil {
				break // all flags false: sub-pipeline complete
			}
			nodeList := s.extractEligible(cs)
			if len(nodeList) == 0 {
				cs.flag = false // cannot contribute to this sub-pipeline
				continue
			}
			progressed = true
			for _, t := range nodeList {
				p.Order = append(p.Order, t)
				p.TaskSub[t] = sub.Index
				p.TaskPos[t] = pos
				pos++
				s.complete(t)
			}
			cs.remaining -= len(nodeList)
			scheduled += len(nodeList)
			cs.priority-- // Algorithm 1 line 20
			if cs.remaining > 0 {
				s.requeue(cs)
			}
		}
		if !progressed {
			return nil, fmt.Errorf(
				"sched: %v deadlocked with %d of %d tasks scheduled (dependency cycle or unsatisfiable link constraint)",
				s.policy, scheduled, total)
		}
		sub.Tasks = p.Order[first:len(p.Order):len(p.Order)]
		// Only this sub's tasks loaded links: unloading theirs empties
		// every count for the next.
		for _, t := range sub.Tasks {
			for _, l := range g.Links(t) {
				s.usedLinks[l] = 0
			}
		}
		p.Subs = append(p.Subs, sub)
	}
	return p, nil
}

// beginRound resets chunk flags and (re)fills the selection structure for
// a new sub-pipeline.
func (s *scheduler) beginRound() {
	s.pq = s.pq[:0]
	for _, cs := range s.chunks {
		cs.flag = cs.remaining > 0
		cs.heapIdx = -1
		if cs.flag && s.policy == PolicyHPDS {
			heap.Push(&s.pq, cs)
		}
	}
}

// nextChunk returns the next flagged chunk to try under the active
// policy, or nil when no flagged chunk remains.
func (s *scheduler) nextChunk() *chunkState {
	switch s.policy {
	case PolicyHPDS:
		if s.pq.Len() == 0 {
			return nil
		}
		return heap.Pop(&s.pq).(*chunkState)
	case PolicyRR:
		n := len(s.chunks)
		for i := 0; i < n; i++ {
			cs := s.chunks[(s.rrNext+i)%n]
			if cs.flag {
				s.rrNext = (int(cs.chunk) + 1) % n
				return cs
			}
		}
		return nil
	case PolicySequential:
		for _, cs := range s.chunks {
			if cs.flag {
				return cs
			}
		}
		return nil
	}
	return nil
}

// requeue puts a chunk back into the selection structure after it
// contributed tasks (its flag stays true so it may contribute again to
// the same sub-pipeline once dependencies inside it are released).
func (s *scheduler) requeue(cs *chunkState) {
	if s.policy == PolicyHPDS && cs.flag {
		heap.Push(&s.pq, cs)
	}
}

// extractEligible collects the chunk's ready tasks that also satisfy all
// communication dependencies against the current sub-pipeline (lines
// 11–15 of Algorithm 1). Ineligible tasks remain in the ready list.
func (s *scheduler) extractEligible(cs *chunkState) []ir.TaskID {
	var eligible []ir.TaskID
	kept := cs.ready[:0]
	for _, t := range cs.ready {
		if s.linksHaveRoom(t) {
			eligible = append(eligible, t)
			// The task occupies its link slots immediately so that a
			// second ready task of the same chunk on the same link is
			// held back once the window fills.
			for _, l := range s.g.Links(t) {
				s.usedLinks[l]++
			}
		} else {
			kept = append(kept, t)
		}
	}
	cs.ready = kept
	return eligible
}

// linksHaveRoom reports whether every link of t still has a free slot in
// its saturation window for the current sub-pipeline.
func (s *scheduler) linksHaveRoom(t ir.TaskID) bool {
	for _, l := range s.g.Links(t) {
		if s.usedLinks[l] >= s.g.LinkWindows[l] {
			return false
		}
	}
	return true
}

// complete marks a task scheduled and releases its dependents.
func (s *scheduler) complete(t ir.TaskID) {
	for _, dep := range s.g.Dependents.Row(int(t)) {
		s.indeg[dep]--
		if s.indeg[dep] == 0 {
			c := s.g.Tasks[dep].Chunk
			s.chunks[c].ready = append(s.chunks[c].ready, dep)
		}
	}
}

// chunkHeap is a max-heap over (priority, then ascending chunk ID for
// determinism).
type chunkHeap []*chunkState

func (h chunkHeap) Len() int { return len(h) }
func (h chunkHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].chunk < h[j].chunk
}
func (h chunkHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *chunkHeap) Push(x any) {
	cs := x.(*chunkState)
	cs.heapIdx = len(*h)
	*h = append(*h, cs)
}
func (h *chunkHeap) Pop() any {
	old := *h
	n := len(old)
	cs := old[n-1]
	old[n-1] = nil
	cs.heapIdx = -1
	*h = old[:n-1]
	return cs
}

// Validate checks pipeline invariants: every task appears exactly once;
// no two tasks in one sub-pipeline share a communication link; every
// data dependency is scheduled at an earlier global position.
//
// It is a thin wrapper over invariant.CheckPipeline, the single source
// of truth shared with the static plan analyzer (internal/analyze), so
// scheduler self-validation and plan linting cannot drift apart.
func Validate(g *dag.Graph, p *Pipeline) error {
	return invariant.Err(invariant.CheckPipeline(g, p.SubTasks(), p.TaskPos))
}

// SubTasks returns the per-sub-pipeline task partition in schedule
// order — the raw form the invariant checker consumes.
func (p *Pipeline) SubTasks() [][]ir.TaskID {
	out := make([][]ir.TaskID, len(p.Subs))
	for i, sub := range p.Subs {
		out[i] = sub.Tasks
	}
	return out
}

// NSubs returns the number of sub-pipelines.
func (p *Pipeline) NSubs() int { return len(p.Subs) }
