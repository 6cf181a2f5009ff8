package plangen

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

// Generated plans must satisfy their operator postcondition on the
// data-plane oracle, for many random shapes.
func TestGeneratedPlansCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := 2 + rng.Intn(11)
		ag, err := RandomAllGather(rng, n)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := collective.Check(ag); err != nil {
			t.Fatalf("allgather n=%d iter=%d: %v", n, i, err)
		}
		ar, err := RandomAllReduce(rng, n)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := collective.Check(ar); err != nil {
			t.Fatalf("allreduce n=%d iter=%d: %v", n, i, err)
		}
	}
}

// End-to-end pipeline property: any generated plan compiles on every
// backend, simulates to completion deterministically, and executes to
// a verified result (exec.Execute). This fuzzes the dependency
// analysis, HPDS, TB allocation, kernel generation, analyzer gate and
// simulator together against the oracle.
func TestPipelineOnRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	backends := []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()}
	iters := 25
	if testing.Short() {
		iters = 6
	}
	for i := 0; i < iters; i++ {
		nNodes := 1 + rng.Intn(2)
		gpn := 2 + rng.Intn(3)
		n := nNodes * gpn
		tp := topo.New(nNodes, gpn, topo.A100())
		var build = RandomAllGather
		if rng.Intn(2) == 0 {
			build = RandomAllReduce
		}
		algo, err := build(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		algo.Name = fmt.Sprintf("%s-%d", algo.Name, i)
		for _, b := range backends {
			plan, err := b.Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
			if err != nil {
				t.Fatalf("iter %d %s: compile: %v", i, b.Name(), err)
			}
			r1, err := sim.Run(sim.Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20})
			if err != nil {
				t.Fatalf("iter %d %s: sim: %v", i, b.Name(), err)
			}
			r2, err := sim.Run(sim.Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Completion != r2.Completion {
				t.Fatalf("iter %d %s: nondeterministic simulation", i, b.Name())
			}
			out := exec.Outcome{Plan: plan}
			if err := exec.Execute(exec.Request{Topo: tp}, &out, 2); err != nil {
				t.Fatalf("iter %d %s: execute: %v", i, b.Name(), err)
			}
		}
	}
}

func TestGeneratorRejectsTinyClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	if _, err := RandomAllGather(rng, 1); err == nil {
		t.Error("1 rank should fail")
	}
	if _, err := RandomAllReduce(rng, 0); err == nil {
		t.Error("0 ranks should fail")
	}
}
