// Package sim is the flow-level discrete-event simulator that stands in
// for the GPU cluster: thread blocks are serial actors executing kernel
// programs, chunk transfers are flows that share link bandwidth max-min
// with the paper's Eq. 1 contention penalty, and all the ordering
// semantics of the three execution strategies (§3) emerge from the
// kernel's slot order, data dependencies and link predecessors.
//
// Several kernels can run concurrently as independent sessions sharing
// the fabric (RunConcurrent) — the substrate for simulating
// data-parallel process groups and multi-tenant contention.
//
// The simulator is deterministic: identical inputs produce identical
// timings, which the experiment harness and golden tests rely on.
// Events are handled in (time, push order): earliest simulated time
// first, and events scheduled for the same time in the order they were
// scheduled. Handlers at one timestamp therefore run in an order fixed
// by the inputs alone, and rates are re-solved once per timestamp.
//
// A run's working state lives in an arena taken from a sync.Pool and
// reset for every run, so a warm run allocates only its result. Reuse
// never shows: a run computes bit-for-bit what a fresh arena computes,
// whatever ran before it, and nothing in a returned Result or
// MultiResult (TBs, Segments, Timeline, LinkBusy, Faults) aliases
// memory a later run reuses, so callers may keep and modify results
// freely. A result holds only per-run values: TBs[i] describes the
// kernel's TBs[i], whose ID, rank, label and slots stay in the kernel,
// and InstanceSpan.Links points into the kernel graph.
package sim

import (
	"fmt"
	"sync"

	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// Config parameterises a single-kernel simulation run.
type Config struct {
	Topo   *topo.Topology
	Kernel *kernel.Kernel
	// BufferBytes is the per-rank payload S the collective synchronises.
	BufferBytes int64
	// ChunkBytes is the target transfer chunk size (the paper fixes
	// 1 MiB). The effective chunk shrinks for small buffers so at least
	// one micro-batch exists.
	ChunkBytes int64
	// Faults is an optional deterministic fault schedule (link
	// degradation/outage windows, NIC flaps, straggler TBs) applied
	// while the run executes. It is the simulator's one model of lost
	// capacity: background traffic from other jobs (§4.4's
	// network-contention scenario) is a fault.KindLinkDegrade window.
	// Nil or empty injects nothing and leaves timings bit-identical to
	// a fault-free run.
	Faults *fault.Schedule
	// RecordTimeline captures per-TB busy segments for Gantt rendering
	// (trace.RenderTimeline). Off by default: large runs produce many
	// segments.
	RecordTimeline bool
	// FullResolve disables the coalesced incremental rate solver and
	// re-solves max-min rates eagerly after every event — the retained
	// reference implementation. Timings are bit-identical either way
	// (the equivalence property test enforces it); the reference path
	// exists for debugging and as the oracle in that test, not for
	// production use.
	FullResolve bool
}

// Session is one kernel participating in a concurrent run.
type Session struct {
	Kernel      *kernel.Kernel
	BufferBytes int64
	ChunkBytes  int64
}

// MultiConfig parameterises a concurrent multi-session run. Every
// session's kernel must target the same topology.
type MultiConfig struct {
	Topo           *topo.Topology
	Sessions       []Session
	Faults         *fault.Schedule
	RecordTimeline bool
	// FullResolve selects the eager per-event reference rate solver; see
	// Config.FullResolve.
	FullResolve bool
}

// InstanceSpan records one executed task invocation when the run is
// configured with RecordTimeline: which task, which micro-batch, when it
// ran (startup + data phase), which TBs drove it and which links it
// crossed. Spans are appended in completion order, which is
// deterministic.
type InstanceSpan struct {
	// Task is the task's index within its session's graph.
	Task ir.TaskID
	// MB is the micro-batch invocation index.
	MB int
	// Src and Dst are the transfer endpoints.
	Src, Dst ir.Rank
	// SendTB and RecvTB are the kernel-local thread-block IDs that
	// executed the primitive pair.
	SendTB, RecvTB int
	// Start and End bound the instance (startup latency + data phase) in
	// simulated seconds.
	Start, End float64
	// Links are the communication links the transfer occupied (shared
	// with the kernel graph; treat as read-only).
	Links []topo.LinkID
}

// TBStats reports one thread block's lifecycle. The TB it describes is
// the kernel's TB at the same index, which carries its ID, rank, label
// and slots.
type TBStats struct {
	// Segments holds merged busy intervals [start,end) when the run was
	// configured with RecordTimeline.
	Segments [][2]float64
	// FirstArrival is when the TB issued its first primitive; Release is
	// when it retired its last.
	FirstArrival, Release float64
	// Exec is time spent driving transfers (latency + data phases);
	// Sync is time spent blocked waiting for peers, dependencies or
	// link turns.
	Exec, Sync float64
}

// Result is the outcome of a single-kernel simulation.
type Result struct {
	// Completion is the collective's total time in seconds.
	Completion float64
	// AlgoBW is BufferBytes / Completion — the "algorithm bandwidth"
	// metric of §5.2, in bytes/s.
	AlgoBW float64
	// Plan echoes the derived micro-batch geometry.
	Plan simcost.Plan
	// TBs has one entry per thread block, in the kernel's TB order.
	TBs []TBStats
	// LinkBusy holds each communication link's busy time, indexed by
	// link ID over the topology's resource space. It is positive exactly
	// for the links that carried traffic (≥1 transfer committed) and
	// zero elsewhere. In a concurrent run it is the fabric's, shared by
	// every session.
	LinkBusy []float64
	// LinkSpan is the simulated time LinkBusy covers: Completion for a
	// lone run, the concurrent run's Completion for each of its
	// sessions.
	LinkSpan float64
	// Instances is the number of task invocations executed.
	Instances int
	// Events is the total number of discrete events the simulator
	// processed over the whole run (shared across sessions in a
	// concurrent run) — the harness's throughput denominator.
	Events int
	// Faults lists the fault windows the simulator applied (opened)
	// during the run, in firing order. Empty for fault-free runs.
	Faults []FaultEvent
	// Timeline holds one record per executed task instance when the run
	// was configured with RecordTimeline, in completion order.
	Timeline []InstanceSpan
}

// MultiResult is the outcome of a concurrent run.
type MultiResult struct {
	// Completion is when the last session finished.
	Completion float64
	// Sessions holds one Result per session, in input order; each
	// session's Completion is its own finish time.
	Sessions []*Result
	// LinkBusy aggregates busy time over all sessions, laid out as
	// Result.LinkBusy.
	LinkBusy []float64
	// Events is the total number of discrete events processed.
	Events int
	// Faults lists the applied fault windows, shared across sessions.
	Faults []FaultEvent
}

// MeanLinkUtilization returns the average busy fraction over links that
// carried traffic — Table 1's "global link utilization" — over the span
// their busy time covers.
func (r *Result) MeanLinkUtilization() float64 {
	// Sum in link order: float addition is order-sensitive.
	sum, n := 0.0, 0
	for _, busy := range r.LinkBusy {
		if busy > 0 {
			sum += busy
			n++
		}
	}
	if n == 0 || r.LinkSpan <= 0 {
		return 0
	}
	return sum / (float64(n) * r.LinkSpan)
}

// Run simulates a single kernel to completion.
func Run(cfg Config) (*Result, error) {
	if cfg.Topo == nil || cfg.Kernel == nil {
		return nil, fmt.Errorf("sim: nil topology or kernel")
	}
	sessions := [1]Session{{Kernel: cfg.Kernel, BufferBytes: cfg.BufferBytes, ChunkBytes: cfg.ChunkBytes}}
	s, err := start(MultiConfig{
		Topo:           cfg.Topo,
		Faults:         cfg.Faults,
		RecordTimeline: cfg.RecordTimeline,
		FullResolve:    cfg.FullResolve,
	}, sessions[:])
	if err != nil {
		return nil, err
	}
	defer s.release()
	return s.sessionResult(0, s.linkBusy()), nil
}

// RunConcurrent simulates several kernels sharing the fabric.
func RunConcurrent(cfg MultiConfig) (*MultiResult, error) {
	s, err := start(cfg, cfg.Sessions)
	if err != nil {
		return nil, err
	}
	defer s.release()
	return s.multiResult(), nil
}

// start simulates sessions under cfg, ignoring cfg.Sessions, on an
// arena from the pool. The caller copies the result out and releases
// the arena. The sessions travel apart from the config so that Run's
// one-element array can stay on its stack.
func start(cfg MultiConfig, sessions []Session) (*sim, error) {
	if cfg.Topo == nil || len(sessions) == 0 {
		return nil, fmt.Errorf("sim: concurrent run needs a topology and at least one session")
	}
	for i, se := range sessions {
		if se.Kernel == nil {
			return nil, fmt.Errorf("sim: session %d has no kernel", i)
		}
		if se.Kernel.Graph.Algo.NRanks != cfg.Topo.NRanks() {
			return nil, fmt.Errorf("sim: session %d kernel targets %d ranks, topology has %d",
				i, se.Kernel.Graph.Algo.NRanks, cfg.Topo.NRanks())
		}
		for j, tb := range se.Kernel.TBs {
			if tb.ID != j {
				return nil, &TBIDError{Session: i, Index: j, ID: tb.ID}
			}
		}
	}
	s := arenas.Get().(*sim)
	if err := s.simulate(cfg, sessions); err != nil {
		s.release()
		return nil, err
	}
	return s, nil
}

// simulate resets the arena for the run and runs it to completion.
func (s *sim) simulate(cfg MultiConfig, sessions []Session) error {
	s.reset(cfg, sessions)
	if !cfg.Faults.Empty() {
		fs, err := newFaultState(cfg.Faults, s)
		if err != nil {
			return err
		}
		s.fault = fs
	}
	return s.run()
}

// TBIDError reports a kernel whose thread block at index Index carries
// ID ID. The simulator reports per-TB statistics by index, so it needs
// every TB's ID to equal its index — the invariant kernel.Validate
// enforces on every compiled plan.
type TBIDError struct {
	Session, Index, ID int
}

func (e *TBIDError) Error() string {
	return fmt.Sprintf("sim: session %d: TB at index %d carries ID %d (TB IDs must equal their index)",
		e.Session, e.Index, e.ID)
}

// event kinds.
const (
	evLatencyDone = iota
	evDataDone
	// evFault fires a fault-schedule boundary (fault.go); the event's
	// task field carries the boundary index.
	evFault
)

// gid is a global task index across sessions.
type gid = int32

type tbState struct {
	prog *kernel.TBProgram
	sess int
	// next is the index of the next instruction to issue, and task the
	// global id of its task (set by arrive).
	next int
	task gid
	// arrival is when the TB reached its current instruction.
	arrival float64
	// started is when the current instance began transferring.
	started  float64
	inFlight bool
	done     bool

	firstArrival float64
	release      float64
	exec, sync   float64

	// segments holds merged [start,end) busy intervals when timeline
	// recording is enabled. It is allocated per run and handed to the
	// Result, never reused.
	segments [][2]float64
}

type taskState struct {
	sess int32
	// local is the task's index within its session's graph.
	local ir.TaskID
	// doneMB is the number of completed micro-batch invocations; the
	// pending invocation is always index doneMB (strict serial order).
	doneMB int
	// nMB is the session's micro-batch count.
	nMB int
	// sendTB and recvTB are the global indices of the task's two TBs.
	sendTB, recvTB int32
	// waitDeps counts the data dependencies that have not finished the
	// pending micro-batch, waitPreds the link predecessors that have not
	// drained. finishInstance keeps both current, so tryStart tests two
	// counts instead of scanning the rows.
	waitDeps, waitPreds int32
	// posOff locates the task's row in the arena's posBuf: while the
	// flow is active, posBuf[posOff+j] is its index in the membership
	// row of resources[j].
	posOff int32
	// version tags the flow's pending completion event.
	version int32
	// sendArr/recvArr mark that the task's TBs have arrived at the
	// pending invocation.
	sendArr, recvArr bool
	inFlight         bool
	// barrier marks a session that waits for each micro-batch to drain.
	barrier bool
	// flow state while in the data phase.
	active     bool
	remaining  float64
	rate       float64
	lastUpdate float64
	cap        float64
	// latency is the startup phase: the path's α under the kernel's tier
	// plus the interpreter's cost at both ends.
	latency   float64
	resources []topo.ResourceID
	// The task's rows of the graph's adjacency tables and its path's
	// communication links, resolved once per run for the event loop.
	deps, dependents []ir.TaskID
	links            []topo.LinkID
}

// session holds one kernel's execution state within a concurrent run.
type session struct {
	k      *kernel.Kernel
	plan   simcost.Plan
	buffer int64
	interp float64
	// wire inflates each chunk's payload bytes to wire bytes under the
	// kernel's protocol tier (1/BWFactor): LL moves two wire bytes per
	// payload byte, so capacities and TB capabilities stay expressed in
	// wire bytes and cross-tier contention remains physical.
	wire float64
	// taskOff/tbOff map local ids into the global arrays.
	taskOff gid
	tbOff   int
	nTasks  int
	nTBs    int

	doneTBs    int
	instances  int
	completion float64

	// mbRemaining[i] counts unfinished task invocations of micro-batch
	// i when the kernel runs with a per-micro-batch barrier.
	mbRemaining []int
	mbReleased  int

	// timeline accumulates per-instance spans under RecordTimeline. It
	// is allocated per run and handed to the Result, never reused.
	timeline []InstanceSpan
}

// sim is one run's state. It is an arena: every run takes a sim from
// the arenas pool, reset re-slices every array for the new run, and
// release returns it. Only the slices handed to the Result (timelines, TB
// segments, applied faults) are allocated per run.
type sim struct {
	topo           *topo.Topology
	recordTimeline bool

	sessions []session

	now    float64
	events eventQueue

	tbs   []tbState
	tasks []taskState
	// linkSucc is CSR: the tasks (global ids) whose LinkPreds include
	// task t are succ[succOff[t]:succOff[t+1]].
	succOff []int32
	succ    []gid

	// Active-flow membership per resource, stored as a CSR arena sized
	// from the plans at reset: resource r's active flows live in
	// resArena[resSlot[r] : resSlot[r]+resCnt[r]], with capacity equal to
	// the number of tasks whose path crosses r (a task has at most one
	// in-flight instance, so that bound is exact). Joining and leaving a
	// resource is a write/swap-remove into the arena — no slice growth,
	// no per-resource headers. resPos[i] is where posBuf records the
	// index of the flow at resArena[i], so a swap-remove updates the
	// moved flow's index without a search.
	resArena []gid
	resPos   []int32
	resSlot  []int32
	resCnt   []int32
	posBuf   []int32
	// resCap[r] is resource r's nominal capacity, and serial[r] whether
	// it is a serializing link (topo.Kind).
	resCap []float64
	serial []bool
	// resBusy accounting; linkUsed marks the links that carried a
	// transfer.
	resBusy      []float64
	resActiveCnt []int
	resBusyStart []float64
	linkUsed     []bool

	// Deferred-solve state (rates.go): resources perturbed at the
	// current timestamp, deduplicated by a generation mark, plus the
	// per-flush component-coverage marks. fullResolve switches to the
	// eager reference solver.
	dirtySeeds  []topo.ResourceID
	dirtyMark   []int32
	dirtyGen    int32
	coveredMark []int32
	coveredGen  int32
	seedOne     [1]topo.ResourceID
	fullResolve bool

	doneTBs int
	// processed counts events handled by run().
	processed int

	// scratch holds the allocation-free working state of the rate
	// computation (rates.go).
	scratch rateScratch

	// mbBuf backs the sessions' mbRemaining rows.
	mbBuf []int

	// fault holds the time-varying fault engine, nil for fault-free runs
	// — every fault code path is gated on it so fault-free timings stay
	// bit-identical.
	fault *faultState
}

// arenas pools run state across runs.
var arenas = sync.Pool{New: func() any { return new(sim) }}

// reuse returns buf resliced to length n with every element zeroed,
// allocating only when its capacity is short.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// reset prepares the arena for a run of sessions under cfg: every
// per-run array is re-sliced and cleared (or rebuilt from the plans),
// and the generation counters restart together with their mark arrays.
func (s *sim) reset(cfg MultiConfig, sessions []Session) {
	t := cfg.Topo
	nRes := t.NResources()
	s.topo, s.recordTimeline = t, cfg.RecordTimeline
	s.now, s.doneTBs, s.processed = 0, 0, 0
	s.events.reset()
	s.resBusy = reuse(s.resBusy, nRes)
	s.resActiveCnt = reuse(s.resActiveCnt, nRes)
	s.resBusyStart = reuse(s.resBusyStart, nRes)
	s.linkUsed = reuse(s.linkUsed, nRes)
	s.dirtySeeds = s.dirtySeeds[:0]
	s.dirtyMark = reuse(s.dirtyMark, nRes)
	s.coveredMark = reuse(s.coveredMark, nRes)
	s.dirtyGen, s.coveredGen = 1, 0
	s.fullResolve = cfg.FullResolve
	s.fault = nil

	s.resCap = grow(s.resCap, nRes)
	s.serial = grow(s.serial, nRes)
	for r := range nRes {
		s.resCap[r] = t.Capacity(topo.ResourceID(r))
		s.serial[r] = t.Kind(topo.ResourceID(r)) == topo.KindSerialLink
	}

	totalTasks, totalTBs, totalMB := 0, 0, 0
	s.sessions = reuse(s.sessions, len(sessions))
	for si, sc := range sessions {
		k := sc.Kernel
		// The kernel's protocol tier shapes the session's micro-batch
		// geometry (chunk cap), startup latency (α factor) and wire-byte
		// inflation (bandwidth factor). ProtoAuto/ProtoSimple are the
		// identity on all three.
		params := simcost.Params(k.Protocol)
		se := &s.sessions[si]
		*se = session{
			k:       k,
			plan:    simcost.PlanFor(sc.BufferBytes, params.EffectiveChunk(sc.ChunkBytes), k.Graph.Algo.NChunks),
			buffer:  sc.BufferBytes,
			wire:    1 / params.BWFactor,
			taskOff: gid(totalTasks),
			tbOff:   totalTBs,
			nTasks:  len(k.Graph.Tasks),
			nTBs:    len(k.TBs),
		}
		if k.Mode == kernel.ModeInterpreted {
			se.interp = t.InterpCost.Seconds()
		}
		totalTasks += se.nTasks
		totalTBs += se.nTBs
		if k.MBBarrier {
			totalMB += se.plan.NMicroBatches
		}
	}
	s.tasks = reuse(s.tasks, totalTasks)
	s.tbs = reuse(s.tbs, totalTBs)
	s.succOff = reuse(s.succOff, totalTasks+1)
	s.mbBuf = reuse(s.mbBuf, totalMB)
	mbOff := 0
	for si := range s.sessions {
		se := &s.sessions[si]
		k := se.k
		params := simcost.Params(k.Protocol)
		g := k.Graph
		for i := 0; i < se.nTasks; i++ {
			ts := &s.tasks[int(se.taskOff)+i]
			p := g.Path(ir.TaskID(i))
			ts.sess = int32(si)
			ts.local = ir.TaskID(i)
			ts.cap = p.TBCap
			ts.resources = p.Resources
			ts.latency = p.Alpha.Seconds()*params.AlphaFactor + 2*se.interp
			ts.deps, ts.dependents = g.Deps.Row(i), g.Dependents.Row(i)
			ts.links = p.CommLinks
			ts.sendTB, ts.recvTB = int32(se.tbOff+k.SendTB[i]), int32(se.tbOff+k.RecvTB[i])
			ts.nMB, ts.barrier = se.plan.NMicroBatches, k.MBBarrier
			// Nothing has finished yet: every dependency and link
			// predecessor is unmet.
			ts.waitDeps, ts.waitPreds = int32(len(ts.deps)), int32(len(k.LinkPreds.Row(i)))
		}
		for _, p := range k.LinkPreds.Items {
			s.succOff[int(se.taskOff)+int(p)+1]++
		}
		if k.MBBarrier {
			se.mbRemaining = s.mbBuf[mbOff : mbOff+se.plan.NMicroBatches : mbOff+se.plan.NMicroBatches]
			mbOff += se.plan.NMicroBatches
			for i := range se.mbRemaining {
				se.mbRemaining[i] = se.nTasks
			}
		}
		// Every TB arrives at time 0: the model charges no one-time
		// kernel load (topo.Profile.KernelLoad).
		for i, prog := range k.TBs {
			s.tbs[se.tbOff+i] = tbState{prog: prog, sess: si}
		}
	}
	// Link successors: count (above), carve, fill in (session, linked
	// task, predecessor) order. The fill advances each row's start to
	// its end; shifting the offsets by one restores the starts.
	for i := 1; i < len(s.succOff); i++ {
		s.succOff[i] += s.succOff[i-1]
	}
	s.succ = reuse(s.succ, int(s.succOff[totalTasks]))
	for si := range s.sessions {
		se := &s.sessions[si]
		for lt := range se.k.LinkPreds.Len() {
			for _, p := range se.k.LinkPreds.Row(lt) {
				at := int(se.taskOff) + int(p)
				s.succ[s.succOff[at]] = se.taskOff + gid(lt)
				s.succOff[at]++
			}
		}
	}
	copy(s.succOff[1:], s.succOff[:totalTasks])
	s.succOff[0] = 0
	// Size the flow-membership arena from the plans: each resource gets
	// exactly as many slots as tasks crossing it.
	s.resSlot = reuse(s.resSlot, nRes+1)
	s.resCnt = reuse(s.resCnt, nRes)
	for i := range s.tasks {
		for _, r := range s.tasks[i].resources {
			s.resSlot[r+1]++
		}
	}
	for r := 1; r < len(s.resSlot); r++ {
		s.resSlot[r] += s.resSlot[r-1]
	}
	members := int(s.resSlot[nRes])
	s.resArena = reuse(s.resArena, members)
	s.resPos = reuse(s.resPos, members)
	// Each task's posBuf row holds one index per resource it crosses.
	s.posBuf = reuse(s.posBuf, members)
	off := int32(0)
	for i := range s.tasks {
		s.tasks[i].posOff = off
		off += int32(len(s.tasks[i].resources))
	}
	s.scratch.reset(totalTasks, nRes)
}

// release drops the run's references to kernels, topology and the
// slices handed to the Result, and returns the arena to the pool.
func (s *sim) release() {
	clear(s.tasks)
	clear(s.tbs)
	clear(s.sessions)
	s.topo, s.fault = nil, nil
	arenas.Put(s)
}

// linkSucc returns the tasks (global ids) whose LinkPreds include t.
func (s *sim) linkSucc(t gid) []gid { return s.succ[s.succOff[t]:s.succOff[t+1]] }

// resFlowsOf returns the tasks (global ids) with an active flow on the
// resource, in join order (departures swap-remove).
func (s *sim) resFlowsOf(r topo.ResourceID) []gid {
	off := s.resSlot[r]
	return s.resArena[off : off+s.resCnt[r]]
}

// joinResource appends task t's flow to resource r's membership row;
// p is where posBuf records the flow's index in it.
func (s *sim) joinResource(r topo.ResourceID, t gid, p int32) {
	at := s.resSlot[r] + s.resCnt[r]
	s.resArena[at], s.resPos[at] = t, p
	s.posBuf[p] = s.resCnt[r]
	s.resCnt[r]++
}

// leaveResource removes the flow whose index posBuf[p] records from
// resource r's membership row: the row's last flow takes its place.
func (s *sim) leaveResource(r topo.ResourceID, p int32) {
	s.resCnt[r]--
	i := s.posBuf[p]
	at, last := s.resSlot[r]+i, s.resSlot[r]+s.resCnt[r]
	s.resArena[at], s.resPos[at] = s.resArena[last], s.resPos[last]
	s.posBuf[s.resPos[at]] = i
}

// sess returns the session owning a global task id.
func (s *sim) sess(t gid) *session { return &s.sessions[s.tasks[t].sess] }

func (s *sim) run() error {
	// Arm the first fault boundary (no-op for fault-free runs).
	s.pushNextBound()
	// Initial arrivals.
	for i := range s.tbs {
		s.arrive(&s.tbs[i])
	}
	for i := range s.tbs {
		s.tryStart(s.currentTask(&s.tbs[i]))
	}
	// Budget: every instance costs two lifecycle events plus rate-change
	// reschedules proportional to its contention component size.
	totalInstances := 0
	for i := range s.sessions {
		totalInstances += s.sessions[i].nTasks * s.sessions[i].plan.NMicroBatches
	}
	maxEvents := 512*(totalInstances+16) + 1<<20
	if s.fault != nil {
		maxEvents += 2 * len(s.fault.bounds)
	}
	processed := 0
	for !s.events.empty() {
		// Fault boundaries may extend past the collective's completion;
		// stop once every TB retired rather than drain them.
		if s.fault != nil && s.doneTBs == len(s.tbs) {
			break
		}
		e := s.events.pop()
		processed++
		if processed > maxEvents {
			return &StallError{Livelock: true, Events: processed}
		}
		s.now = e.time
		switch e.kind {
		case evLatencyDone:
			s.enterDataPhase(e.task)
		case evDataDone:
			ts := &s.tasks[e.task]
			if ts.active && ts.version == e.version {
				s.finishInstance(e.task)
			}
			// else stale: rates changed since this event was scheduled
		case evFault:
			s.applyFaultBound(int(e.task))
		}
		// Rate solves are deferred while events share a timestamp: zero
		// simulated time elapses between them, so one solve over the
		// final state of the batch is exact (rates.go). Flushing may
		// schedule further events at the current instant (a drained flow
		// completes "now"), which simply extends the batch.
		if s.events.empty() || s.events.peekTime() != s.now {
			s.flushRates()
		}
	}
	s.processed = processed
	if s.doneTBs != len(s.tbs) {
		return s.deadlockError()
	}
	return nil
}

// currentTask returns the global task id of the TB's pending
// instruction, or -1 if the TB is done.
func (s *sim) currentTask(tb *tbState) gid {
	if tb.done {
		return -1
	}
	return tb.task
}

// arrive marks the TB as having reached its pending instruction, notes
// the instruction's task, and registers the arrival with the task.
func (s *sim) arrive(tb *tbState) {
	if tb.done {
		return
	}
	se := &s.sessions[tb.sess]
	slot, _ := tb.prog.Instr(tb.next, se.plan.NMicroBatches)
	sl := &tb.prog.Slots[slot]
	tb.task = se.taskOff + gid(sl.Task)
	ts := &s.tasks[tb.task]
	if sl.Kind == ir.PrimSend {
		ts.sendArr = true
	} else {
		ts.recvArr = true
	}
	tb.arrival = s.now
	if tb.arrival < tb.firstArrival {
		tb.firstArrival = tb.arrival
	}
}

// tryStart launches the pending invocation of task t if every readiness
// condition holds: both TBs arrived, data dependencies done for this
// micro-batch, and (ResCCL kernels) all link predecessors fully drained.
func (s *sim) tryStart(t gid) {
	if t < 0 {
		return
	}
	ts := &s.tasks[t]
	if ts.inFlight || ts.doneMB >= ts.nMB || !ts.sendArr || !ts.recvArr || ts.waitDeps > 0 || ts.waitPreds > 0 {
		return
	}
	if ts.barrier && ts.doneMB > s.sessions[ts.sess].mbReleased {
		return // lazy execution: previous micro-batch still in flight
	}
	// Start: both TBs transition from waiting to executing, and the
	// path's resources are committed to the transfer (busy accounting
	// covers the startup phase as well as data movement).
	ts.inFlight = true
	for _, tbID := range [2]int32{ts.sendTB, ts.recvTB} {
		tb := &s.tbs[tbID]
		tb.sync += s.now - tb.arrival
		tb.started = s.now
		tb.inFlight = true
	}
	for _, r := range ts.resources {
		s.resActiveCnt[r]++
		if s.resActiveCnt[r] == 1 {
			s.resBusyStart[r] = s.now
		}
	}
	for _, l := range ts.links {
		s.linkUsed[l] = true
	}
	lat := ts.latency
	if s.fault != nil {
		// A straggling TB pays its slowdown on the startup phase too.
		lat *= s.taskSlow(t)
	}
	s.events.push(event{time: s.now + lat, kind: evLatencyDone, task: t})
}

// enterDataPhase joins the flow to its resources and marks the affected
// component for a rate re-solve.
func (s *sim) enterDataPhase(t gid) {
	ts := &s.tasks[t]
	se := s.sess(t)
	ts.active = true
	ts.remaining = se.plan.ChunkBytes * se.wire
	ts.lastUpdate = s.now
	ts.rate = 0
	for j, r := range ts.resources {
		s.joinResource(r, t, ts.posOff+int32(j))
	}
	s.markDirty(ts.resources)
}

// finishInstance completes the pending invocation of task t: leave the
// resources, advance both TBs, release dependents and link successors.
func (s *sim) finishInstance(t gid) {
	ts := &s.tasks[t]
	se := s.sess(t)
	for j, r := range ts.resources {
		s.leaveResource(r, ts.posOff+int32(j))
		s.resActiveCnt[r]--
		if s.resActiveCnt[r] == 0 {
			s.resBusy[r] += s.now - s.resBusyStart[r]
		}
	}
	ts.active = false
	ts.inFlight = false
	ts.sendArr = false
	ts.recvArr = false
	mb := ts.doneMB
	ts.doneMB++
	se.instances++

	// Readiness counts, brought up to date before anything is woken.
	// Micro-batch mb+1 is now pending, and every dependency had finished
	// mb, so the unmet ones are those that have not finished mb+1. The
	// dependents pending at mb no longer wait for t, and once t drains
	// its link successors no longer do.
	if ts.doneMB < ts.nMB {
		ts.waitDeps = 0
		for _, d := range ts.deps {
			if s.tasks[se.taskOff+gid(d)].doneMB <= ts.doneMB {
				ts.waitDeps++
			}
		}
	}
	for _, dep := range ts.dependents {
		if dt := &s.tasks[se.taskOff+gid(dep)]; dt.doneMB == mb {
			dt.waitDeps--
		}
	}
	if ts.doneMB == ts.nMB {
		for _, succ := range s.linkSucc(t) {
			s.tasks[succ].waitPreds--
		}
	}

	// Rates of former sharers may rise.
	s.markDirty(ts.resources)

	sendTB := &s.tbs[ts.sendTB]
	recvTB := &s.tbs[ts.recvTB]
	if s.recordTimeline {
		task := se.k.Graph.Tasks[ts.local]
		se.timeline = append(se.timeline, InstanceSpan{
			Task: ts.local, MB: mb,
			Src: task.Src, Dst: task.Dst,
			SendTB: int(ts.sendTB) - se.tbOff, RecvTB: int(ts.recvTB) - se.tbOff,
			Start: sendTB.started, End: s.now,
			Links: ts.links,
		})
	}
	for _, tb := range [2]*tbState{sendTB, recvTB} {
		tb.exec += s.now - tb.started
		if s.recordTimeline {
			if n := len(tb.segments); n > 0 && tb.segments[n-1][1] >= tb.started-1e-12 {
				tb.segments[n-1][1] = s.now
			} else {
				tb.segments = append(tb.segments, [2]float64{tb.started, s.now})
			}
		}
		tb.inFlight = false
		tb.next++
		if tb.next >= tb.prog.NInstr(se.plan.NMicroBatches) {
			tb.done = true
			tb.release = s.now
			s.doneTBs++
			se.doneTBs++
			if se.doneTBs == se.nTBs {
				se.completion = s.now
			}
			continue
		}
		s.arrive(tb)
	}
	// Wake the TBs' new tasks, the dependents, and link successors.
	s.tryStart(s.currentTask(sendTB))
	s.tryStart(s.currentTask(recvTB))
	// The same task may still have micro-batches left (its TBs loop on
	// it); tryStart above covers that case because currentTask returns t
	// again.
	for _, dep := range ts.dependents {
		s.tryStart(se.taskOff + gid(dep))
	}
	if ts.doneMB == ts.nMB {
		for _, succ := range s.linkSucc(t) {
			s.tryStart(succ)
		}
	}
	if se.mbRemaining != nil {
		se.mbRemaining[mb]--
		if se.mbRemaining[mb] == 0 && mb+1 > se.mbReleased {
			se.mbReleased = mb + 1
			// The barrier lifted: every waiting TB of this session may
			// now proceed.
			for i := 0; i < se.nTBs; i++ {
				s.tryStart(s.currentTask(&s.tbs[se.tbOff+i]))
			}
		}
	}
}

func (s *sim) deadlockError() error {
	e := &StallError{At: s.now, DoneTBs: s.doneTBs, TBs: len(s.tbs)}
	for i := range s.tbs {
		tb := &s.tbs[i]
		if tb.done {
			continue
		}
		t := s.currentTask(tb)
		ts := &s.tasks[t]
		e.Blocked = append(e.Blocked, fmt.Sprintf(
			"session %d TB %d (%s) at task %d mb %d/%d (sendArr=%v recvArr=%v)",
			tb.sess, tb.prog.ID, tb.prog.Label, ts.local, ts.doneMB,
			s.sessions[tb.sess].plan.NMicroBatches, ts.sendArr, ts.recvArr))
		if len(e.Blocked) >= 8 {
			break
		}
	}
	return e
}

// StallError is a run that stopped making progress. A deadlock drains
// the event queue with thread blocks unfinished; a livelock exceeds the
// event budget. Either way it wraps kernel.ErrDeadlock.
type StallError struct {
	// Livelock marks an exceeded budget of Events events.
	Livelock bool
	Events   int
	// At is the simulated time the queue drained, when DoneTBs of TBs
	// thread blocks had finished; Blocked describes up to eight of the
	// rest.
	At           float64
	DoneTBs, TBs int
	Blocked      []string
}

func (e *StallError) Error() string {
	if e.Livelock {
		return fmt.Sprintf("sim: event budget exceeded (%d events) — livelock", e.Events)
	}
	return fmt.Sprintf("sim: deadlock at t=%.6fs: %d/%d TBs done; blocked: %v",
		e.At, e.DoneTBs, e.TBs, e.Blocked)
}

// Unwrap makes errors.Is(err, kernel.ErrDeadlock) hold.
func (e *StallError) Unwrap() error { return kernel.ErrDeadlock }

// The result methods copy the run's outcome out of the arena. Every
// slice of a returned result is either freshly allocated here or was
// allocated for this run alone (timelines, TB segments, applied faults)
// and is handed over: nothing aliases memory a later run reuses.

// completion is when the run's last session finished. The event loop
// may drain stale reschedules past it, so it is not the clock's final
// reading.
func (s *sim) completion() float64 {
	last := 0.0
	for i := range s.sessions {
		last = max(last, s.sessions[i].completion)
	}
	return last
}

// linkBusy copies the busy time of the links that carried traffic into
// a fresh dense slice.
func (s *sim) linkBusy() []float64 {
	busy := make([]float64, len(s.linkUsed))
	for l, used := range s.linkUsed {
		if used {
			busy[l] = s.resBusy[l]
		}
	}
	return busy
}

// sessionResult returns session si's result over the fabric's busy
// time.
func (s *sim) sessionResult(si int, busy []float64) *Result {
	se := &s.sessions[si]
	r := &Result{
		Completion: se.completion,
		Plan:       se.plan,
		Instances:  se.instances,
		Events:     s.processed,
		LinkBusy:   busy,
		LinkSpan:   s.completion(),
		Timeline:   se.timeline,
		TBs:        make([]TBStats, se.nTBs),
	}
	if s.fault != nil {
		r.Faults = s.fault.applied
	}
	if se.buffer > 0 && se.completion > 0 {
		r.AlgoBW = float64(se.buffer) / se.completion
	}
	// TB IDs equal their index (start checked), so TBs[i] is the
	// kernel's TBs[i].
	for i := range r.TBs {
		tb := &s.tbs[se.tbOff+i]
		r.TBs[i] = TBStats{
			Segments:     tb.segments,
			FirstArrival: tb.firstArrival,
			Release:      tb.release,
			Exec:         tb.exec,
			Sync:         tb.sync,
		}
	}
	return r
}

// multiResult returns the concurrent run's result, its sessions sharing
// one LinkBusy slice.
func (s *sim) multiResult() *MultiResult {
	mr := &MultiResult{
		Completion: s.completion(),
		LinkBusy:   s.linkBusy(),
		Events:     s.processed,
		Sessions:   make([]*Result, len(s.sessions)),
	}
	if s.fault != nil {
		mr.Faults = s.fault.applied
	}
	for si := range s.sessions {
		mr.Sessions[si] = s.sessionResult(si, mr.LinkBusy)
	}
	return mr
}

// scheduleDataDone (re)schedules the completion event for an active flow
// after a rate change.
func (s *sim) scheduleDataDone(t gid) {
	ts := &s.tasks[t]
	ts.version++
	if ts.rate <= 0 {
		// A flow can only be rate-zero if a resource is fully consumed
		// by frozen flows, which max-min never produces with positive
		// capacities; guard against division by zero regardless.
		ts.rate = 1
	}
	fin := s.now + ts.remaining/ts.rate
	if ts.remaining <= 1e-9 {
		fin = s.now
	}
	s.events.push(event{time: fin, kind: evDataDone, task: t, version: ts.version})
}

// advanceFlow charges elapsed transmission to the flow's remaining bytes.
func (s *sim) advanceFlow(t gid) {
	ts := &s.tasks[t]
	if !ts.active {
		return
	}
	elapsed := s.now - ts.lastUpdate
	if elapsed > 0 && ts.rate > 0 {
		ts.remaining -= elapsed * ts.rate
		if ts.remaining < 0 {
			ts.remaining = 0
		}
	}
	ts.lastUpdate = s.now
}
