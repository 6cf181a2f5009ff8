package analyze_test

import (
	"testing"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/verify"
)

// FuzzMutatedPlans feeds the analyzer kernels mutated the way a buggy
// scheduler or allocator would corrupt them — dropped, duplicated and
// reordered primitives, and slot payloads swapped across thread blocks
// — and asserts the two properties the replan gate depends on:
//
//  1. totality: the analyzer terminates without panicking on every
//     mutant, however malformed;
//  2. no false negatives: if the analyzer reports zero errors, the
//     mutant's executed transfers must satisfy the collective's
//     postcondition under internal/verify's symbolic replay, and
//     executing it (exec.Execute) must verify too. A plan the analyzer
//     waves through must actually be correct.
//
// The converse (no false positives on valid plans) is covered by
// TestRegisteredPlansClean.
func FuzzMutatedPlans(f *testing.F) {
	bases := []*kernel.Kernel{
		compile(f, "ring-allreduce", 1, 4),
		compile(f, "ring-allgather", 1, 8),
		compile(f, "hm-allreduce", 2, 4),
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0x00, 0x01}) // drop a primitive
	f.Add(uint8(1), []byte{0x41, 0x07}) // duplicate a primitive
	f.Add(uint8(2), []byte{0x82, 0x03}) // swap adjacent slots
	f.Add(uint8(0), []byte{0xC3, 0x05}) // swap slots across TBs
	f.Add(uint8(1), []byte{0x02, 0x04, 0x86, 0x01, 0x45, 0x09})
	f.Fuzz(func(t *testing.T, base uint8, muts []byte) {
		k := cloneKernel(bases[int(base)%len(bases)])
		applyMutations(k, muts)
		r, err := analyze.Plan(k, analyze.Options{})
		if err != nil {
			t.Fatalf("analyzer returned an operational error on a mutant: %v", err)
		}
		if err := analyze.DeadlockMatchesReference(k, 2); err != nil {
			t.Fatalf("deadlock pass disagrees with the reference: %v", err)
		}
		errs, _, _ := r.Counts()
		if errs > 0 {
			return // flagged; nothing further to prove
		}
		if err := replayMutant(k); err != nil {
			t.Fatalf("false negative: analyzer reported no errors but verify rejects the plan: %v\nreport:\n%s",
				err, r.String())
		}
		out := exec.Outcome{Plan: &backend.Plan{Algo: k.Graph.Algo, Kernel: k}}
		if err := exec.Execute(exec.Request{Topo: k.Graph.Topo}, &out, 2); err != nil {
			t.Fatalf("analyzer-clean mutant failed to execute: %v\nreport:\n%s", err, r.String())
		}
	})
}

// applyMutations decodes (op, arg) byte pairs into structural kernel
// mutations. At most 8 mutations apply so the mutant stays within
// shouting distance of a real scheduler bug rather than pure noise.
func applyMutations(k *kernel.Kernel, muts []byte) {
	n := len(muts) / 2
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		op, arg := muts[2*i], int(muts[2*i+1])
		tb := k.TBs[int(op&0x3F)%len(k.TBs)]
		switch op >> 6 {
		case 0: // drop a primitive
			if len(tb.Slots) > 0 {
				j := arg % len(tb.Slots)
				tb.Slots = append(tb.Slots[:j:j], tb.Slots[j+1:]...)
			}
		case 1: // duplicate a primitive
			if len(tb.Slots) > 0 {
				j := arg % len(tb.Slots)
				tb.Slots = append(tb.Slots, tb.Slots[j])
			}
		case 2: // swap adjacent slots (reorder)
			if len(tb.Slots) > 1 {
				j := arg % (len(tb.Slots) - 1)
				tb.Slots[j], tb.Slots[j+1] = tb.Slots[j+1], tb.Slots[j]
			}
		case 3: // swap one slot with the same index in the next TB
			other := k.TBs[(int(op&0x3F)+1)%len(k.TBs)]
			if len(tb.Slots) > 0 && len(other.Slots) > 0 {
				a, b := arg%len(tb.Slots), arg%len(other.Slots)
				tb.Slots[a], other.Slots[b] = other.Slots[b], tb.Slots[a]
			}
		}
	}
}

// replayMutant replays the transfers the mutated kernel would execute —
// tasks with at least one send and one recv primitive, in dependency
// order — through the symbolic verifier and checks the collective's
// postcondition. It is an independent reimplementation of the
// analyzer's coverage check, so agreement between the two is evidence,
// not tautology.
func replayMutant(k *kernel.Kernel) error {
	g := k.Graph
	algo := g.Algo
	sends := make([]int, len(g.Tasks))
	recvs := make([]int, len(g.Tasks))
	for _, tb := range k.TBs {
		for _, p := range tb.Slots {
			t := int(p.Task)
			if t < 0 || t >= len(g.Tasks) {
				continue
			}
			if p.Kind == ir.PrimSend {
				sends[t]++
			} else {
				recvs[t]++
			}
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	trace := make([]ir.Transfer, 0, len(order))
	for _, t := range order {
		if sends[t] > 0 && recvs[t] > 0 {
			trace = append(trace, g.Tasks[t].Transfer)
		}
	}
	h, err := verify.Replay(algo.Op, algo.NRanks, algo.NChunks, algo.Initial, trace)
	if err != nil {
		return err
	}
	return h.Postcondition(verify.Expect{})
}
