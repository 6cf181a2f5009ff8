package rt

import (
	"sort"
	"time"

	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// Recovery: the runtime's response to injected faults, layered on top of
// the deadlock watchdog. A fault.Schedule's link-down and NIC-flap
// events translate into per-instance failed send attempts for every
// task whose path crosses a downed resource (the runtime has no
// simulated clock, so outage windows become attempt counts —
// fault.Event.Attempts). Each affected invocation retries with
// exponential backoff; when the attempts outlast the retry budget the
// executor degrades the task's sub-pipeline from pipelined to
// sequential execution — HPDS's graceful fallback to the sequential
// policy for just the affected sub-pipeline — and proceeds.
//
// Determinism: the failed-attempt counts are a pure function of the
// schedule and the kernel, so the multiset of recovery actions is
// identical across runs; Execute sorts the log canonically so the
// slice is identical too.

// DefaultMaxRetries and DefaultBackoff parameterise RecoveryPolicy zero
// values.
const (
	DefaultMaxRetries = 3
	DefaultBackoff    = time.Millisecond
)

// RecoveryPolicy bounds the executor's retry behaviour.
type RecoveryPolicy struct {
	// MaxRetries is the failed-attempt budget per instance before the
	// executor gives up and degrades (default DefaultMaxRetries).
	MaxRetries int
	// Backoff is the first retry delay; attempt k sleeps Backoff·2^(k−1)
	// (default DefaultBackoff). Tests set tiny values.
	Backoff time.Duration
}

func (p RecoveryPolicy) withDefaults() RecoveryPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = DefaultMaxRetries
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultBackoff
	}
	return p
}

// Recovery action kinds.
const (
	// ActionRetry is one failed send attempt followed by a backoff.
	ActionRetry = "retry"
	// ActionRecovered marks an instance whose retries outlasted the
	// outage: the send went through within the budget.
	ActionRecovered = "recovered"
	// ActionDegrade marks an instance that exhausted its retry budget;
	// its sub-pipeline falls back to sequential execution.
	ActionDegrade = "degrade"
	// ActionEscalate marks an instance stranded on a permanently failed
	// resource: retries cannot help, the executor escalates to
	// plan-level recovery (replan.go).
	ActionEscalate = "escalate"
)

// RecoveryAction is one entry of the executor's recovery log.
type RecoveryAction struct {
	// Kind is ActionRetry, ActionRecovered or ActionDegrade.
	Kind string
	// Task and MB identify the affected invocation.
	Task ir.TaskID
	MB   int
	// Attempt numbers retries from 1; for recovered/degrade entries it
	// is the total attempts spent.
	Attempt int
	// Sub is the task's sub-pipeline index, -1 when the kernel has no
	// sub-pipeline structure (baseline backends).
	Sub int
}

// buildFailCounts maps the schedule's down windows onto the kernel:
// failN[t] is how many consecutive send attempts fail for every
// invocation of task t. Degrade windows and stragglers slow the
// simulator but do not fail runtime sends; permanent failures are not
// outages to retry through — they are handled by plan-level recovery
// (replan.go) and excluded here.
//
// Paths are inverted into a resource → tasks index once, so the cost is
// O(Σ|path|) plus O(Σ|event resources|·tasks-per-resource) instead of
// the former O(events × tasks × |path| × |resources|) rescan.
func buildFailCounts(ex *executor, sched *fault.Schedule) {
	g := ex.k.Graph
	resTasks := make(map[topo.ResourceID][]int)
	for t, task := range g.Tasks {
		for _, r := range g.Path(task.ID).Resources {
			resTasks[r] = append(resTasks[r], t)
		}
	}
	var failN []int
	hit := make(map[int]bool)
	for _, ev := range sched.Sorted() {
		if ev.Kind != fault.KindLinkDown && ev.Kind != fault.KindNICFlap {
			continue
		}
		n := ev.Attempts
		if n < 1 {
			n = 1
		}
		// An event downing several resources of one path still counts
		// once for that path, as the former any-crossing scan did.
		clear(hit)
		for _, d := range ev.Resources {
			for _, t := range resTasks[d] {
				if hit[t] {
					continue
				}
				hit[t] = true
				if failN == nil {
					failN = make([]int, len(g.Tasks))
				}
				failN[t] += n
			}
		}
	}
	ex.failN = failN
}

// buildSubPrev precomputes, for every task in a sub-pipeline, the task
// of the same sub immediately before it in global pipeline position —
// the predecessor a degraded (sequential) sub waits on. Waiting on a
// lower-position task of the same micro-batch cannot deadlock: TB slot
// order follows global position, so the predecessor's primitives always
// sit at earlier slots.
func buildSubPrev(ex *executor) {
	k := ex.k
	if len(k.TaskSub) != len(k.Graph.Tasks) || len(k.TaskPos) != len(k.TaskSub) {
		return
	}
	prev := make([]ir.TaskID, len(k.TaskSub))
	for t := range prev {
		prev[t] = -1
		if k.TaskSub[t] < 0 {
			continue
		}
		best := -1
		for u := range k.TaskSub {
			if u == t || k.TaskSub[u] != k.TaskSub[t] {
				continue
			}
			if k.TaskPos[u] < k.TaskPos[t] && (best < 0 || k.TaskPos[u] > k.TaskPos[best]) {
				best = u
			}
		}
		if best >= 0 {
			prev[t] = ir.TaskID(best)
		}
	}
	ex.subPrev = prev
}

// subOf returns the task's sub-pipeline index, or -1.
func (ex *executor) subOf(t ir.TaskID) int {
	if int(t) >= len(ex.k.TaskSub) {
		return -1
	}
	return ex.k.TaskSub[t]
}

func (ex *executor) record(a RecoveryAction) {
	ex.recMu.Lock()
	ex.recovery = append(ex.recovery, a)
	ex.recMu.Unlock()
}

func (ex *executor) isDegraded(sub int) bool {
	if sub < 0 {
		return false
	}
	ex.recMu.Lock()
	d := ex.degraded[sub]
	ex.recMu.Unlock()
	return d
}

// recoverSend runs the retry/backoff/degrade protocol for one send
// invocation crossing a downed link. Returns false only on abort.
func (ex *executor) recoverSend(t ir.TaskID, mb int) bool {
	fails := ex.failN[t]
	sub := ex.subOf(t)
	retries := fails
	if retries > ex.policy.MaxRetries {
		retries = ex.policy.MaxRetries
	}
	for a := 1; a <= retries; a++ {
		ex.record(RecoveryAction{Kind: ActionRetry, Task: t, MB: mb, Attempt: a, Sub: sub})
		if d := ex.policy.Backoff << uint(a-1); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ex.abort:
				timer.Stop()
				return false
			}
		}
	}
	if fails > ex.policy.MaxRetries {
		ex.record(RecoveryAction{Kind: ActionDegrade, Task: t, MB: mb, Attempt: retries + 1, Sub: sub})
		if sub >= 0 {
			ex.recMu.Lock()
			if ex.degraded == nil {
				ex.degraded = make(map[int]bool)
			}
			ex.degraded[sub] = true
			ex.recMu.Unlock()
		}
	} else {
		ex.record(RecoveryAction{Kind: ActionRecovered, Task: t, MB: mb, Attempt: retries, Sub: sub})
	}
	return true
}

// escalateSend burns the retry budget for a send stranded on a
// permanently failed resource, then records the escalation to
// plan-level recovery. Unlike recoverSend it never "recovers": no
// number of retries crosses a dead link. Returns false only on abort.
func (ex *executor) escalateSend(t ir.TaskID, mb int) bool {
	sub := ex.subOf(t)
	for a := 1; a <= ex.policy.MaxRetries; a++ {
		ex.record(RecoveryAction{Kind: ActionRetry, Task: t, MB: mb, Attempt: a, Sub: sub})
		if d := ex.policy.Backoff << uint(a-1); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ex.abort:
				timer.Stop()
				return false
			}
		}
	}
	ex.record(RecoveryAction{Kind: ActionEscalate, Task: t, MB: mb, Attempt: ex.policy.MaxRetries + 1, Sub: sub})
	return true
}

// sortedRecovery returns the canonical recovery log: the action multiset
// is deterministic, so sorting by (Task, MB, Attempt, Kind) makes the
// slice reproducible across runs regardless of goroutine interleaving.
func (ex *executor) sortedRecovery() []RecoveryAction {
	ex.recMu.Lock()
	out := append([]RecoveryAction(nil), ex.recovery...)
	ex.recMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.MB != b.MB {
			return a.MB < b.MB
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.Kind < b.Kind
	})
	return out
}

// degradedSubs returns the sorted indices of sub-pipelines that fell
// back to sequential execution.
func (ex *executor) degradedSubs() []int {
	ex.recMu.Lock()
	var out []int
	for s := range ex.degraded {
		out = append(out, s)
	}
	ex.recMu.Unlock()
	sort.Ints(out)
	return out
}
