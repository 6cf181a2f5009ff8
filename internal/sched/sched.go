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
	timeline  *dag.Windows // Timeline's, once computed
}

// Timeline returns the pipeline's §4.4 timeline, dag.Graph.Timeline
// over Order at WindowChunkBytes and WindowMB: HPDS's tie-break guard
// compares it and the state-based allocator sizes its windows by it.
// The first call computes it and later calls return it, so it is not
// safe for concurrent first calls.
func (p *Pipeline) Timeline() *dag.Windows {
	if p.timeline == nil {
		p.timeline = p.Graph.Timeline(p.Order, 1, dag.WindowChunkBytes, dag.WindowMB)
	}
	return p.timeline
}

// Schedule builds the task pipeline for g under the given policy.
//
// HPDS breaks priority ties by inter-node and first-hop link load (see
// leastLoadedTop).
// When that made any pop differ from the chunk-ID tie-break, Schedule
// also builds the chunk-ID pipeline and keeps the tie-broken one only
// if its Timeline ends strictly sooner; the kept pipeline keeps its
// timeline for the TB allocator.
func Schedule(g *dag.Graph, policy Policy) (*Pipeline, error) {
	switch policy {
	case PolicyHPDS, PolicyRR, PolicySequential:
	default:
		return nil, fmt.Errorf("sched: unknown policy %v", policy)
	}
	s := newScheduler(g, policy, policy == PolicyHPDS)
	p, err := s.run()
	if err != nil {
		return nil, err
	}
	if s.deviated {
		plain, err := newScheduler(g, policy, false).run()
		if err != nil {
			return nil, err
		}
		if plain.Timeline().Makespan <= p.Timeline().Makespan {
			p = plain
		}
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
	// admitted is set once the chunk contributes tasks to the current
	// sub-pipeline, when its inter-node and first-hop links' loads count
	// it.
	admitted bool
	// score caches the chunk's tie-break score, valid while scoredAt
	// equals the scheduler's loadEpoch. A 512-rank tree's chunk crosses
	// hundreds of inter-node links, and loads change only on admission,
	// far less often than HPDS pops.
	score, scoredAt int32
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

	// Chunk c's inter-node links, the distinct CommLinks of its tasks
	// whose path leaves the server, are interLinks[interOff[c]:
	// interOff[c+1]]; its first-hop links, those of its inter-node tasks
	// at the smallest Step among them, are firstLinks[firstOff[c]:
	// firstOff[c+1]]. HPDS breaks priority ties by them; interOff is nil
	// when ties fall back to chunk ID alone.
	interOff, interLinks []int32
	firstOff, firstLinks []int32
	// interLoad[l] and firstLoad[l] count the current sub-pipeline's
	// admitted chunks with l among their inter-node and first-hop links.
	interLoad, firstLoad []int32
	// loadEpoch advances whenever a load changes: on each admission and
	// at each round's reset.
	loadEpoch int32
	// tied is nextChunk's scratch stack of heap positions.
	tied []int
	// deviated records that some pop differed from the chunk-ID
	// tie-break's.
	deviated bool
}

// newScheduler prepares a run of policy over g; loadTies makes HPDS
// break priority ties by inter-node and first-hop link load.
func newScheduler(g *dag.Graph, policy Policy, loadTies bool) *scheduler {
	s := &scheduler{
		g:         g,
		policy:    policy,
		indeg:     g.InDegrees(),
		usedLinks: make([]int, len(g.LinkWindows)),
	}
	var seen []int32 // seen[l] == c+1 once chunk c listed link l
	if loadTies {
		s.interOff = make([]int32, 1, g.Algo.NChunks+1)
		s.firstOff = make([]int32, 1, g.Algo.NChunks+1)
		seen = make([]int32, len(g.LinkWindows))
		s.interLoad = make([]int32, len(g.LinkWindows))
		s.firstLoad = make([]int32, len(g.LinkWindows))
	}
	nChunks := g.Algo.NChunks
	s.chunks = make([]*chunkState, nChunks)
	for c := 0; c < nChunks; c++ {
		cs := &chunkState{chunk: ir.ChunkID(c), flag: true}
		cs.remaining = len(g.ChunkTasks.Row(c))
		// Seed priority: chunks whose tasks touch lightly loaded links
		// (lower execution frequency) get higher priority so they are
		// interleaved early, spreading load across links (§4.3).
		load := 0
		firstStep := ir.Step(-1)
		for _, t := range g.ChunkTasks.Row(c) {
			inter := loadTies && !g.Path(t).Intra
			if inter && firstStep < 0 {
				firstStep = g.Tasks[t].Step
			}
			// Rows ascend by Step, so a link new to the chunk at its
			// first inter-node Step is new to its first hop too.
			first := inter && g.Tasks[t].Step == firstStep
			for _, l := range g.Links(t) {
				load += len(g.LinkTasks.Row(int(l)))
				if inter && seen[l] != int32(c+1) {
					seen[l] = int32(c + 1)
					s.interLinks = append(s.interLinks, int32(l))
					if first {
						s.firstLinks = append(s.firstLinks, int32(l))
					}
				}
			}
		}
		if loadTies {
			s.interOff = append(s.interOff, int32(len(s.interLinks)))
			s.firstOff = append(s.firstOff, int32(len(s.firstLinks)))
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
			s.admit(cs)
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

// beginRound resets chunk flags and link loads and (re)fills the
// selection structure for a new sub-pipeline.
func (s *scheduler) beginRound() {
	s.pq = s.pq[:0]
	s.loadEpoch++
	for _, cs := range s.chunks {
		if cs.admitted {
			cs.admitted = false
			c := int(cs.chunk)
			for _, l := range s.inter(c) {
				s.interLoad[l] = 0
			}
			for _, l := range s.first(c) {
				s.firstLoad[l] = 0
			}
		}
		cs.flag = cs.remaining > 0
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
		i := 0
		if s.interOff != nil {
			i = s.leastLoadedTop()
			s.deviated = s.deviated || i != 0
		}
		return heap.Remove(&s.pq, i).(*chunkState)
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

// inter returns chunk c's inter-node links.
func (s *scheduler) inter(c int) []int32 {
	return s.interLinks[s.interOff[c]:s.interOff[c+1]]
}

// first returns chunk c's first-hop links.
func (s *scheduler) first(c int) []int32 {
	return s.firstLinks[s.firstOff[c]:s.firstOff[c+1]]
}

// admit counts cs, which has just contributed tasks, on its inter-node
// and first-hop links for the rest of the current sub-pipeline.
func (s *scheduler) admit(cs *chunkState) {
	if s.interOff == nil || cs.admitted {
		return
	}
	cs.admitted = true
	s.loadEpoch++
	c := int(cs.chunk)
	for _, l := range s.inter(c) {
		s.interLoad[l]++
	}
	for _, l := range s.first(c) {
		s.firstLoad[l]++
	}
}

// score is cs's tie-break load in the current sub-pipeline: the
// admitted chunks on each of its inter-node links plus those whose first
// hop shares each of its first-hop links. Weighting the first hop splits
// a wave of chunks whose inter-node link sets coincide, such as HM
// AllReduce's out-and-back hops, across both NIC directions.
func (s *scheduler) score(cs *chunkState) int32 {
	if cs.scoredAt == s.loadEpoch {
		return cs.score
	}
	var n int32
	for _, l := range s.inter(int(cs.chunk)) {
		n += s.interLoad[l]
	}
	for _, l := range s.first(int(cs.chunk)) {
		n += s.firstLoad[l]
	}
	cs.score, cs.scoredAt = n, s.loadEpoch
	return n
}

// leastLoadedTop returns the heap position of the chunk HPDS pops: of
// the chunks that share the top priority, the one with the lowest
// score, ties to the lowest chunk ID. Every top-priority chunk's heap
// ancestors share its priority, so a walk down from the root that stops
// at lower priorities finds them all. The root is the lowest-ID
// top-priority chunk, so it wins outright when its score is 0.
func (s *scheduler) leastLoadedTop() int {
	h := s.pq
	best, bestScore := 0, s.score(h[0])
	if bestScore == 0 {
		return 0
	}
	s.tied = append(s.tied[:0], 1, 2)
	for len(s.tied) > 0 {
		i := s.tied[len(s.tied)-1]
		s.tied = s.tied[:len(s.tied)-1]
		if i >= len(h) || h[i].priority != h[0].priority {
			continue
		}
		s.tied = append(s.tied, 2*i+1, 2*i+2)
		if n := s.score(h[i]); n < bestScore || n == bestScore && h[i].chunk < h[best].chunk {
			best, bestScore = i, n
		}
	}
	return best
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
func (h chunkHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *chunkHeap) Push(x any)   { *h = append(*h, x.(*chunkState)) }
func (h *chunkHeap) Pop() any {
	old := *h
	n := len(old)
	cs := old[n-1]
	old[n-1] = nil
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
