package replan

import (
	"context"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// A window fails the smallest a ≥ 1 attempts whose backoffs, 1, 2, 4 …
// ms, add up to at least its duration.
func TestAttempts(t *testing.T) {
	for _, tc := range []struct {
		d    float64
		want int
	}{{1e-4, 1}, {1e-3, 1}, {1.5e-3, 2}, {3e-3, 2}, {7e-3, 3}, {7.5e-3, 4}, {1e-2, 4}} {
		if got := attempts(tc.d); got != tc.want {
			t.Errorf("attempts(%g) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// quadraticSubPrev is subPrev's definition: for each task in a sub, the
// task of the same sub with the greatest smaller position.
func quadraticSubPrev(k *kernel.Kernel) []ir.TaskID {
	prev := make([]ir.TaskID, len(k.TaskSub))
	for t := range prev {
		prev[t] = -1
		if k.TaskSub[t] < 0 {
			continue
		}
		best := -1
		for u := range k.TaskSub {
			if u != t && k.TaskSub[u] == k.TaskSub[t] && k.TaskPos[u] < k.TaskPos[t] &&
				(best < 0 || k.TaskPos[u] > k.TaskPos[best]) {
				best = u
			}
		}
		prev[t] = ir.TaskID(best)
	}
	return prev
}

// subPrev's sorted pass matches its quadratic definition on every
// registry plan of a 2×8 cluster.
func TestSubPrevMatchesDefinition(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	linked := 0
	for _, b := range expert.Registry() {
		algo, err := expert.BuildOn(b.Name, 2, 8)
		if err != nil {
			continue // not defined on 2×8
		}
		plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		k := plan.Kernel
		got, want := subPrev(k), quadraticSubPrev(k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: task %d follows %d, want %d", b.Name, i, got[i], want[i])
			}
			if got[i] >= 0 {
				linked++
			}
		}
	}
	if linked == 0 {
		t.Fatal("no registry plan has a task with a same-sub predecessor")
	}
	t.Logf("%d same-sub predecessors agree", linked)
}

// Degrading copies the kernel: the analyzed plan keeps its graph.
func TestDegradeLeavesKernelUntouched(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	algo, err := expert.HMAllReduce(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	k := plan.Kernel
	deps := len(k.Graph.Deps.Items)
	a := Analyze(k, &fault.Schedule{Events: []fault.Event{fault.NICFlap(tp, 0, 0, 1e-2)}})
	if a.Kernel() == k || len(a.subs) == 0 {
		t.Fatal("a 10 ms outage degraded nothing")
	}
	if len(k.Graph.Deps.Items) != deps || len(a.Kernel().Graph.Deps.Items) <= deps {
		t.Fatalf("deps: analyzed kernel %d (was %d), epoch 0 %d", len(k.Graph.Deps.Items), deps, len(a.Kernel().Graph.Deps.Items))
	}
}

// The repair kernel inherits the running kernel's protocol tier after
// kernel.Generate has checked its structure, so the gate must refuse an
// undefined tier itself.
func TestCompileRepairRejectsUndefinedProtocol(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	algo, err := expert.HMAllReduce(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compileRepair(algo, tp, 2, ir.ProtoSimple); err != nil {
		t.Fatalf("repair under Simple: %v", err)
	}
	if _, err := compileRepair(algo, tp, 2, ir.Protocol(99)); err == nil {
		t.Fatal("repair accepted an undefined protocol tier")
	}
}
