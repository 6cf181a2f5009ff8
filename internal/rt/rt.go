// Package rt is the concurrent data-plane runtime: it executes a
// compiled kernel with one goroutine per thread block, moving real
// values between rank buffers through rendezvous channels, with
// cross-TB semaphores enforcing data dependencies (the device-memory
// flags MSCCL-style runtimes use) and the per-micro-batch barrier of
// lazy execution.
//
// The runtime complements the timing simulator: where sim predicts
// performance from the cost model, rt proves the plan is deadlock-free
// under real concurrency and that executing it yields the collective's
// correct result. Both consume the same kernel.Kernel.
package rt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/verify"
)

// DefaultWatchdog is how long the executor waits without any instance
// completing before declaring a deadlock.
const DefaultWatchdog = 10 * time.Second

// ErrDeadlock is wrapped into the watchdog's failure so callers (the
// chaos harness in particular) can classify hangs with errors.Is. It is
// kernel.ErrDeadlock, which the simulator's stall error wraps too.
var ErrDeadlock = kernel.ErrDeadlock

// Config parameterises one execution.
type Config struct {
	Kernel *kernel.Kernel
	// MicroBatches is the number of micro-batch invocations per task (n
	// of §3). Every micro-batch is an independent slice of the payload
	// with its own buffer state; running n > 1 exercises the pipelining
	// and ordering machinery.
	MicroBatches int
	// Watchdog overrides the deadlock timeout (default DefaultWatchdog).
	Watchdog time.Duration
	// Faults injects a fault schedule: every down window crossing a
	// task's path makes that task's send attempts fail (recover.go),
	// exercising retry and graceful degradation. Nil injects nothing.
	Faults *fault.Schedule
	// Recovery bounds the retry protocol; zero values take defaults.
	Recovery RecoveryPolicy
}

// Result reports one execution.
type Result struct {
	// States holds the final data plane of every micro-batch.
	States []*collective.State
	// Instances is the number of task invocations executed.
	Instances int
	// Elapsed is wall time (host time, not simulated time).
	Elapsed time.Duration
	// Recovery is the canonical (sorted) log of retry/degrade actions
	// taken under the injected fault schedule; empty without faults.
	Recovery []RecoveryAction
	// DegradedSubs lists sub-pipelines that fell back from pipelined to
	// sequential execution, sorted.
	DegradedSubs []int
	// Trace is the ordered list of transfers actually executed across
	// all epochs, in the canonical replay order (ascending TaskID per
	// epoch). Verify replays it through the symbolic verifier.
	Trace []ir.Transfer
	// ReplanEvents logs plan-level recoveries (replan.go); empty unless
	// the schedule carried permanent failures hitting the plan. The log
	// is deterministic across runs.
	ReplanEvents []ReplanEvent
	// Lost[c] is the set of contributions to chunk c declared
	// unrecoverable by the replanner; nil when nothing was lost.
	Lost []verify.Set
	// Surviving[r] reports whether rank r survived; nil when all ranks
	// did.
	Surviving []bool
	// initial is the precondition override the kernel was compiled with
	// (nil for operator defaults), kept for symbolic verification.
	initial [][]bool
}

// Verify proves the run correct, the same way for clean and replanned
// runs: the executed trace must replay cleanly through the symbolic
// verifier (internal/verify), every micro-batch's concrete buffers must
// equal the sums their symbolic provenance names, and the (possibly
// degraded) postcondition must hold for the surviving ranks.
func (r *Result) Verify() error {
	if len(r.States) == 0 {
		return fmt.Errorf("rt: no states to verify")
	}
	st := r.States[0]
	h, err := verify.Replay(st.Op, st.NRanks, st.NChunks, r.initial, r.Trace)
	if err != nil {
		return fmt.Errorf("rt: trace replay: %w", err)
	}
	want := make([]int64, collective.ElemsPerChunk)
	for rk := 0; rk < st.NRanks; rk++ {
		for c := 0; c < st.NChunks; c++ {
			rank, chunk := ir.Rank(rk), ir.ChunkID(c)
			set := h.Set(rank, chunk)
			if set.Empty() {
				continue // nothing delivered: the buffer is unconstrained
			}
			clear(want)
			for _, q := range set.Ranks() {
				for e := range want {
					want[e] += collective.Contribution(q, chunk, e)
				}
			}
			for mb, s := range r.States {
				for e, got := range s.Chunk(rank, chunk) {
					if got != want[e] {
						return fmt.Errorf(
							"rt: micro-batch %d: rank %d chunk %d elem %d holds %d, want %d (contributions %v)",
							mb, rk, c, e, got, want[e], set)
					}
				}
			}
		}
	}
	return h.Postcondition(verify.Expect{Surviving: r.Surviving, Lost: r.Lost})
}

// Execute runs the kernel to completion and returns the final buffers.
// It returns an error if the watchdog fires (a deadlocked or livelocked
// plan) or the configuration is invalid.
func Execute(cfg Config) (*Result, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("rt: nil kernel")
	}
	n := cfg.MicroBatches
	if n < 1 {
		n = 1
	}
	watchdog := cfg.Watchdog
	if watchdog <= 0 {
		watchdog = DefaultWatchdog
	}
	ex := newExecutor(cfg.Kernel, n)
	ex.policy = cfg.Recovery.withDefaults()
	var perm *permPlan
	if !cfg.Faults.Empty() {
		buildFailCounts(ex, cfg.Faults)
		buildSubPrev(ex)
		// Permanent failures strand part of the plan: epoch 0 runs only
		// the unaffected frontier, then Execute replans the rest.
		if perm = analyzePermanent(cfg.Kernel, cfg.Faults); perm != nil {
			ex.direct = perm.direct
			ex.blocked = perm.blocked
		}
	}
	ex.setupBarrier()
	start := time.Now()
	if err := ex.run(watchdog); err != nil {
		return nil, err
	}
	res := &Result{
		States:       ex.states,
		Instances:    int(ex.completed.Load()),
		Recovery:     ex.sortedRecovery(),
		DegradedSubs: ex.degradedSubs(),
		Trace:        frontierTrace(ex),
		initial:      cfg.Kernel.Graph.Algo.Initial,
	}
	if perm != nil {
		if err := replanAndResume(ex, perm, res, watchdog); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

type executor struct {
	k   *kernel.Kernel
	n   int
	alg *ir.Algorithm

	// states holds one independent data plane per micro-batch.
	states []*collective.State
	// bufMu serialises buffer access per rank. A single mutex per rank
	// keeps it simple; contention is irrelevant for correctness testing.
	bufMu []sync.Mutex

	// rendezvous[t] carries the sender's chunk snapshot to the receiver
	// for each invocation of task t.
	rendezvous []chan []int64
	// done[t][i] is closed when invocation (t, i) completes — the
	// cross-TB semaphore dependents and link successors wait on.
	done [][]chan struct{}

	// barrier state for MBBarrier kernels.
	barrier *mbBarrier

	completed atomic.Int64
	errOnce   sync.Once
	err       error
	abort     chan struct{}

	// Recovery state (recover.go). failN is nil without faults; subPrev
	// is nil when the kernel carries no sub-pipeline structure.
	policy   RecoveryPolicy
	failN    []int
	subPrev  []ir.TaskID
	recMu    sync.Mutex
	recovery []RecoveryAction
	degraded map[int]bool

	// Plan-level recovery state (replan.go), nil without permanent
	// failures. blocked[t]: t is stranded and skipped this epoch;
	// direct[t]: t's own path or endpoints are dead (its send burns the
	// retry budget and escalates, for log continuity).
	blocked []bool
	direct  []bool
}

func newExecutor(k *kernel.Kernel, n int) *executor {
	alg := k.Graph.Algo
	ex := &executor{
		k:          k,
		n:          n,
		alg:        alg,
		states:     make([]*collective.State, n),
		bufMu:      make([]sync.Mutex, alg.NRanks),
		rendezvous: make([]chan []int64, len(k.Graph.Tasks)),
		done:       make([][]chan struct{}, len(k.Graph.Tasks)),
		abort:      make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		ex.states[i] = collective.NewState(alg.Op, alg.NRanks, alg.NChunks)
	}
	for t := range ex.rendezvous {
		ex.rendezvous[t] = make(chan []int64)
		ex.done[t] = make([]chan struct{}, n)
		for i := range ex.done[t] {
			ex.done[t][i] = make(chan struct{})
		}
	}
	return ex
}

// setupBarrier creates the per-micro-batch barrier once the blocked set
// is known: stranded tasks never arrive, so the barrier must expect only
// the live frontier. Call after assigning ex.blocked, before run.
func (ex *executor) setupBarrier() {
	if !ex.k.MBBarrier {
		return
	}
	live := len(ex.k.Graph.Tasks)
	for _, b := range ex.blocked {
		if b {
			live--
		}
	}
	ex.barrier = newMBBarrier(live, ex.n)
}

// fail records the first error and aborts every thread block.
func (ex *executor) fail(err error) {
	ex.errOnce.Do(func() {
		ex.err = err
		close(ex.abort)
	})
}

func (ex *executor) run(watchdog time.Duration) error {
	var wg sync.WaitGroup
	for _, tb := range ex.k.TBs {
		wg.Add(1)
		go func(tb *kernel.TBProgram) {
			defer wg.Done()
			ex.runTB(tb)
		}(tb)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	last := int64(0)
	for {
		select {
		case <-finished:
			return ex.err
		case <-timer.C:
			cur := ex.completed.Load()
			if cur == last {
				ex.fail(fmt.Errorf("rt: %w: no progress for %v after %d instances in kernel %q",
					ErrDeadlock, watchdog, cur, ex.k.Name))
				<-finished
				return ex.err
			}
			last = cur
			timer.Reset(watchdog)
		}
	}
}

// runTB executes one thread block's instruction stream.
func (ex *executor) runTB(tb *kernel.TBProgram) {
	total := tb.NInstr(ex.n)
	for k := 0; k < total; k++ {
		slot, mb := tb.Instr(k, ex.n)
		prim := tb.Slots[slot]
		if !ex.execInstr(prim, mb) {
			return // aborted
		}
	}
}

// execInstr runs one primitive invocation; returns false on abort.
func (ex *executor) execInstr(prim ir.Primitive, mb int) bool {
	t := prim.Task
	// Stranded on a permanent failure: skip the invocation entirely —
	// both sides of the rendezvous skip, dependents are blocked too, and
	// the barrier was sized without it. The send side of directly hit
	// tasks burns its retry budget first and records the escalation to
	// plan-level recovery; downstream tasks are abandoned silently.
	if ex.blocked != nil && ex.blocked[t] {
		if prim.Kind == ir.PrimSend && ex.direct[t] {
			return ex.escalateSend(t, mb)
		}
		return true
	}
	// Gate on the per-micro-batch barrier (lazy execution).
	if ex.barrier != nil && !ex.barrier.await(mb, ex.abort) {
		return false
	}
	// Cross-TB semaphores: data dependencies for this micro-batch, and
	// (ResCCL kernels) full drain of the link-window predecessors.
	// Blocked link predecessors never complete — the runtime models no
	// bandwidth, so their window slot is simply free and the await is
	// skipped. Data dependencies need no such guard: dependents of
	// blocked tasks are blocked themselves.
	g := ex.k.Graph
	for _, d := range g.Deps.Row(int(t)) {
		if !ex.await(ex.done[d][mb]) {
			return false
		}
	}
	for _, p := range ex.k.LinkPreds.Row(int(t)) {
		if ex.blocked != nil && ex.blocked[p] {
			continue
		}
		if !ex.await(ex.done[p][ex.n-1]) {
			return false
		}
	}

	task := &g.Tasks[t]
	rank, _ := task.Ends(prim.Kind)
	switch prim.Kind {
	case ir.PrimSend:
		// Degraded sub-pipelines run sequentially: wait for the previous
		// task of the sub to finish this micro-batch before sending.
		if ex.subPrev != nil && ex.isDegraded(ex.subOf(t)) {
			if prev := ex.subPrev[t]; prev >= 0 && !(ex.blocked != nil && ex.blocked[prev]) {
				if !ex.await(ex.done[prev][mb]) {
					return false
				}
			}
		}
		// Sends crossing a downed link fail, retry with backoff, and
		// degrade the sub-pipeline when the retry budget runs out.
		if ex.failN != nil && ex.failN[t] > 0 {
			if !ex.recoverSend(t, mb) {
				return false
			}
		}
		// Snapshot under the source rank's lock so concurrent writes to
		// other chunks of this rank cannot tear the read.
		ex.bufMu[rank].Lock()
		data := append([]int64(nil), ex.states[mb].Chunk(rank, task.Chunk)...)
		ex.bufMu[rank].Unlock()
		select {
		case ex.rendezvous[t] <- data:
			return true
		case <-ex.abort:
			return false
		}
	case ir.PrimRecv, ir.PrimRecvReduceCopy:
		var data []int64
		select {
		case data = <-ex.rendezvous[t]:
		case <-ex.abort:
			return false
		}
		ex.bufMu[rank].Lock()
		dst := ex.states[mb].Chunk(rank, task.Chunk)
		if prim.Kind == ir.PrimRecv {
			copy(dst, data)
		} else {
			for e := range dst {
				dst[e] += data[e]
			}
		}
		ex.bufMu[rank].Unlock()
		// The receive side completes the invocation: signal semaphores
		// and the barrier.
		close(ex.done[t][mb])
		ex.completed.Add(1)
		if ex.barrier != nil {
			ex.barrier.arrive(mb)
		}
		return true
	default:
		ex.fail(fmt.Errorf("rt: unknown primitive kind %v", prim.Kind))
		return false
	}
}

// await blocks on a semaphore or the abort signal.
func (ex *executor) await(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-ex.abort:
		return false
	}
}

// mbBarrier lets no invocation of micro-batch i start before every task
// has completed micro-batch i−1 — the lazy algorithm-level launch
// boundary.
type mbBarrier struct {
	nTasks int
	mu     sync.Mutex
	// remaining[i] counts unfinished tasks of micro-batch i; released[i]
	// is closed when micro-batch i may start.
	remaining []int
	released  []chan struct{}
}

func newMBBarrier(nTasks, n int) *mbBarrier {
	b := &mbBarrier{nTasks: nTasks}
	b.remaining = make([]int, n)
	b.released = make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		b.remaining[i] = nTasks
		b.released[i] = make(chan struct{})
	}
	close(b.released[0]) // the first micro-batch starts immediately
	return b
}

// await blocks until micro-batch mb is released (or abort).
func (b *mbBarrier) await(mb int, abort chan struct{}) bool {
	select {
	case <-b.released[mb]:
		return true
	case <-abort:
		return false
	}
}

// arrive records one completed task invocation of micro-batch mb and
// releases mb+1 when it was the last.
func (b *mbBarrier) arrive(mb int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.remaining[mb]--
	if b.remaining[mb] == 0 && mb+1 < len(b.released) {
		close(b.released[mb+1])
	}
}
