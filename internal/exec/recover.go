package exec

import (
	"errors"
	"fmt"
	"slices"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/replan"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/verify"
)

var (
	// ErrIncorrect reports a plan that does not compute its collective:
	// it failed the analyzer's gate, or its executed transfers did not
	// replay to the collective's postcondition.
	ErrIncorrect = errors.New("exec: plan is incorrect")
	// ErrConcurrentReplan reports permanent failures in a concurrent
	// run: only a lone call replans.
	ErrConcurrentReplan = errors.New("exec: permanent failures need a lone call to replan")
)

// simulateFaulted is Simulate's lone call under a non-empty schedule. It
// recovers on the simulated clock (internal/replan): epoch 0 runs the
// kernel without its stranded tasks and with its degraded sub-pipelines
// serialized, and when permanent failures stranded tasks, epoch 1 runs
// the repair kernel on the carved topology once the frontier has
// drained. The stored Result concatenates the epochs' completion,
// instances, events and link-busy time; epoch 1's spans follow epoch
// 0's in time and number their tasks and TBs after the kernel's (its
// task i is span task len(Graph.Tasks)+i, its TB j is TB len(TBs)+j).
// TBs stays the kernel's.
func simulateFaulted(req Request, call Call, out *Outcome) error {
	a := replan.Analyze(out.Plan.Kernel, req.Faults)
	res, err := sim.Run(sim.Config{Topo: req.Topo, Kernel: a.Kernel(), BufferBytes: call.BufferBytes,
		ChunkBytes: req.ChunkBytes, Faults: req.Faults, RecordTimeline: req.RecordTimeline})
	if err != nil {
		return err
	}
	for i := range res.Timeline {
		res.Timeline[i].Task = a.TaskOf(res.Timeline[i].Task)
	}
	if out.Recovery, err = a.Recover(res.Plan.NMicroBatches, res.Completion); err != nil {
		return err
	}
	if ev := out.Recovery.Replan; ev != nil {
		req.Metrics.Add("exec.replans", 1)
		res.Completion = ev.Start
		if ev.Repair != nil {
			rep, err := sim.Run(sim.Config{Topo: ev.Repair.Graph.Topo, Kernel: ev.Repair, BufferBytes: call.BufferBytes,
				ChunkBytes: req.ChunkBytes, RecordTimeline: req.RecordTimeline})
			if err != nil {
				return fmt.Errorf("exec: repair epoch: %w", err)
			}
			k := out.Plan.Kernel
			concat(res, rep, ev.Start, ir.TaskID(len(k.Graph.Tasks)), len(k.TBs))
		}
		res.LinkSpan = res.Completion
		res.AlgoBW = 0
		if call.BufferBytes > 0 && res.Completion > 0 {
			res.AlgoBW = float64(call.BufferBytes) / res.Completion
		}
	}
	out.Result = res
	return nil
}

// concat appends epoch 1's result rep, started at start, to res.
func concat(res, rep *sim.Result, start float64, taskOff ir.TaskID, tbOff int) {
	res.Completion = start + rep.Completion
	res.Instances += rep.Instances
	res.Events += rep.Events
	for l, busy := range rep.LinkBusy {
		res.LinkBusy[l] += busy
	}
	for _, sp := range rep.Timeline {
		sp.Task += taskOff
		sp.SendTB += tbOff
		sp.RecvTB += tbOff
		sp.Start += start
		sp.End += start
		res.Timeline = append(res.Timeline, sp)
	}
}

// Execute simulates a compiled call for exactly microBatches
// micro-batches of req.ChunkBytes chunks under req.Faults, recovering
// from them, and proves its result. The plan must first pass the
// analyzer's gate (deadlock and hazard freedom), so a malformed kernel
// never reaches the simulator; then, per micro-batch, the transfers the
// run executed, in completion order and repair epoch included, must
// replay through the symbolic verifier to the collective's
// postcondition, degraded by the ranks and contributions a replan lost.
// A plan that fails either check returns ErrIncorrect; one the
// simulator finds stalled, kernel.ErrDeadlock.
func Execute(req Request, out *Outcome, microBatches int) error {
	k := out.Plan.Kernel
	report, err := analyze.Plan(k, analyze.Options{Checks: analyze.CheckGate})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrIncorrect, err)
	}
	if err := report.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrIncorrect, err)
	}
	outs := []Outcome{*out}
	if k2 := bySlots(k); k2 != k {
		outs[0].Plan = &backend.Plan{Backend: out.Plan.Backend, Algo: out.Plan.Algo, Kernel: k2}
	}
	chunk := simcost.Params(k.Protocol).EffectiveChunk(req.ChunkBytes)
	call := Call{Algo: out.Plan.Algo, BufferBytes: int64(max(microBatches, 1)) * int64(k.Graph.Algo.NChunks) * chunk}
	req.RecordTimeline = true
	if err := Simulate(req, []Call{call}, outs); err != nil {
		return err
	}
	out.Result, out.Recovery = outs[0].Result, outs[0].Recovery
	return verifyRun(*out)
}

// bySlots returns k with its SendTB and RecvTB tables read off its TB
// programs, which are what executes: the simulator advances the TBs the
// tables name. It is k itself when the tables agree.
func bySlots(k *kernel.Kernel) *kernel.Kernel {
	send, recv := slices.Clone(k.SendTB), slices.Clone(k.RecvTB)
	for _, tb := range k.TBs {
		for _, p := range tb.Slots {
			if p.Kind == ir.PrimSend {
				send[p.Task] = tb.ID
			} else {
				recv[p.Task] = tb.ID
			}
		}
	}
	if slices.Equal(send, k.SendTB) && slices.Equal(recv, k.RecvTB) {
		return k
	}
	k2 := *k
	k2.SendTB, k2.RecvTB = send, recv
	return &k2
}

// verifyRun replays each micro-batch's executed transfers, in the order
// the run completed them, through the symbolic verifier.
func verifyRun(o Outcome) error {
	g, res := o.Plan.Kernel.Graph, o.Result
	var expect verify.Expect
	var repair []ir.Task
	if rec := o.Recovery; rec != nil && rec.Replan != nil {
		expect = verify.Expect{Surviving: rec.Replan.Surviving, Lost: rec.Replan.Lost}
		if rec.Replan.Repair != nil {
			repair = rec.Replan.Repair.Graph.Tasks
		}
	}
	traces := make([][]ir.Transfer, res.Plan.NMicroBatches)
	for _, sp := range res.Timeline {
		task := int(sp.Task)
		if task < len(g.Tasks) {
			traces[sp.MB] = append(traces[sp.MB], g.Tasks[task].Transfer)
		} else {
			traces[sp.MB] = append(traces[sp.MB], repair[task-len(g.Tasks)].Transfer)
		}
	}
	algo := g.Algo
	for mb, tr := range traces {
		h, err := verify.Replay(algo.Op, algo.NRanks, algo.NChunks, algo.Initial, tr)
		if err == nil {
			err = h.Postcondition(expect)
		}
		if err != nil {
			return fmt.Errorf("%w: micro-batch %d: %w", ErrIncorrect, mb, err)
		}
	}
	return nil
}

// Timeline builds the outcome's timeline (trace.BuildTimeline) under
// name, with a replan mark at the simulated time its repair epoch
// started. Nil unless the run recorded spans.
func (o Outcome) Timeline(name string, tp *topo.Topology) *obs.Timeline {
	tl := trace.BuildTimeline(name, o.Plan.Kernel, tp, o.Result)
	if tl != nil && o.Recovery != nil && o.Recovery.Replan != nil {
		ev := o.Recovery.Replan
		tl.Replans = append(tl.Replans, obs.Mark{Name: "replan",
			Detail: fmt.Sprintf("epoch 1: %d abandoned, %d repair tasks", ev.AbandonedTasks, ev.RepairTasks), Time: ev.Start})
	}
	return tl
}
