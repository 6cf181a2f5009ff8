package analyze_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// scanPairing is the reference rendezvous pairing: every occurrence of
// a task's primitive, in (TB, slot) order, contributes the invocations
// found by scanning its TB's whole instruction stream; the j-th send
// invocation meets the j-th recv invocation.
func scanPairing(k *kernel.Kernel, nMB int) [][7]int {
	type inv struct{ tb, k, mb int }
	n := len(k.Graph.Tasks)
	sends, recvs := make([][]inv, n), make([][]inv, n)
	for tbi, tb := range k.TBs {
		for s, prim := range tb.Slots {
			t := int(prim.Task)
			if t < 0 || t >= n {
				continue
			}
			side := &recvs[t]
			if prim.Kind == ir.PrimSend {
				side = &sends[t]
			}
			for ki := 0; ki < len(tb.Slots)*nMB; ki++ {
				slot, mb := ki/nMB, ki%nMB
				if tb.Order != kernel.TaskMajor {
					slot, mb = ki%len(tb.Slots), ki/len(tb.Slots)
				}
				if slot == s {
					*side = append(*side, inv{tbi, ki, mb})
				}
			}
		}
	}
	var out [][7]int
	for t := 0; t < n; t++ {
		for j := 0; j < max(len(sends[t]), len(recvs[t])); j++ {
			row := [7]int{t, -1, -1, -1, -1, -1, -1}
			if j < len(sends[t]) {
				s := sends[t][j]
				row[1], row[2], row[3] = s.tb, s.k, s.mb
			}
			if j < len(recvs[t]) {
				r := recvs[t][j]
				row[4], row[5], row[6] = r.tb, r.k, r.mb
			}
			out = append(out, row)
		}
	}
	return out
}

// duplicateSlot returns a mutant whose first multi-slot TB runs its
// second slot twice in a row.
func duplicateSlot(k *kernel.Kernel) *kernel.Kernel {
	m := cloneKernel(k)
	for _, tb := range m.TBs {
		if len(tb.Slots) >= 2 {
			tb.Slots = slices.Insert(tb.Slots, 1, tb.Slots[1])
			return m
		}
	}
	return m
}

// The deadlock pass computes each invocation's instruction index from
// the TB's loop order instead of scanning the instruction stream; the
// pairing must be the scan's exactly, on task-major and mb-major
// kernels and on mutants whose duplicated slots make a task occur
// twice.
func TestWaitForPairingMatchesScan(t *testing.T) {
	taskMajor := compile(t, "ring-allreduce", 1, 8)
	algo, err := expert.RingAllReduce(8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := backend.NewNCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: topo.New(1, 8, topo.A100())})
	if err != nil {
		t.Fatal(err)
	}
	baseline := p.Kernel
	if !baseline.MBBarrier || baseline.TBs[0].Order != kernel.MBMajor {
		t.Fatal("NCCL baseline kernel is not an mb-major MBBarrier kernel")
	}
	for _, c := range []struct {
		name string
		k    *kernel.Kernel
	}{
		{"task-major", taskMajor},
		{"mb-major-barrier", baseline},
		{"task-major-duplicated-slot", duplicateSlot(taskMajor)},
		{"mb-major-duplicated-slot", duplicateSlot(baseline)},
	} {
		for _, nMB := range []int{1, 2, 3} {
			got, want := analyze.Pairing(c.k, nMB), scanPairing(c.k, nMB)
			if !slices.Equal(got, want) {
				t.Errorf("%s, %d micro-batches: pairing differs from the instruction scan\ngot  %v\nwant %v", c.name, nMB, got, want)
			}
		}
	}
}

// The deadlock pass lists each node's waits on demand; it must agree
// with the materialized reference graph (reference_test.go) node for
// node and diagnostic for diagnostic: on every registered plan at three
// shapes, on the analyzer's mutant corpus built from each, and on an
// mb-major barrier kernel and its mutants.
func TestDeadlockMatchesReference(t *testing.T) {
	check := func(name string, k *kernel.Kernel) {
		t.Helper()
		for _, nMB := range []int{1, 2, 3} {
			if err := analyze.DeadlockMatchesReference(k, nMB); err != nil {
				t.Errorf("%s, %d micro-batches: %v", name, nMB, err)
			}
		}
	}
	mutants := []struct {
		name string
		mut  func(*kernel.Kernel) *kernel.Kernel
	}{
		{"deadlocked", seedDeadlock},
		{"dropped-recv", dropRecv},
		{"misplaced-send", misplaceSend},
		{"oversub", seedOversub},
		{"duplicated-slot", duplicateSlot},
		{"hazard", func(k *kernel.Kernel) *kernel.Kernel { return seedHazard(t, k) }},
		{"corrupt-link-preds", corruptLinkPreds},
	}
	for _, shape := range [][2]int{{1, 8}, {2, 8}, {4, 4}} {
		for _, b := range expert.Registry() {
			name := fmt.Sprintf("%s %dx%d", b.Name, shape[0], shape[1])
			params := []int{shape[0] * shape[1]}
			if b.NParams == 2 {
				params = []int{shape[0], shape[1]}
			}
			if _, err := expert.Build(b.Name, params...); err != nil {
				t.Logf("%s: skipped: %v", name, err)
				continue
			}
			k := compile(t, b.Name, shape[0], shape[1])
			check(name, k)
			for _, m := range mutants {
				if m.name == "hazard" && b.Name != "ring-allgather" {
					continue // seedHazard fails the test when no RAW edge is droppable
				}
				check(name+" "+m.name, m.mut(k))
			}
		}
	}
	check("dead-primitive", deadPrimitivePlan(t))
	algo, err := expert.RingAllReduce(8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := backend.NewNCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: topo.New(1, 8, topo.A100())})
	if err != nil {
		t.Fatal(err)
	}
	check("nccl-barrier", p.Kernel)
	for _, m := range mutants[:5] {
		check("nccl-barrier "+m.name, m.mut(p.Kernel))
	}
}
