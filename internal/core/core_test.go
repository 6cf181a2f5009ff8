package core

import (
	"context"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

func TestCompileDefaults(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(context.Background(), algo, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Kernel.Mode != kernel.ModeDirect {
		t.Error("default mode must be direct")
	}
	if c.Pipeline.Policy != sched.PolicyHPDS {
		t.Error("default policy must be HPDS")
	}
	if c.Phases.Analyze <= 0 || c.Phases.Schedule <= 0 || c.Phases.Lower <= 0 {
		t.Error("phase timings must be recorded")
	}
	if c.Phases.Parse != 0 {
		t.Error("Compile (non-DSL) has no parse phase")
	}
	if c.Phases.Total() <= 0 {
		t.Error("total phase time must be positive")
	}
}

func TestCompileRejectsIncorrectAlgorithm(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	for _, bad := range []*ir.Algorithm{
		// An "AllGather" that never delivers anything to rank 3.
		{
			Name: "broken", Op: ir.OpAllGather, NRanks: 4, NChunks: 4,
			Transfers: []ir.Transfer{
				{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
				{Src: 1, Dst: 2, Step: 0, Chunk: 1, Type: ir.CommRecv},
			},
		},
		// An AllReduce that reduces {0,3} twice and drops {1,2}: every
		// rank's sum still equals the sum of all four contributions.
		{
			Name: "double-count", Op: ir.OpAllReduce, NRanks: 4, NChunks: 1,
			Transfers: []ir.Transfer{
				{Src: 0, Dst: 3, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
				{Src: 3, Dst: 2, Step: 1, Chunk: 0, Type: ir.CommRecv},
				{Src: 2, Dst: 3, Step: 2, Chunk: 0, Type: ir.CommRecvReduceCopy},
				{Src: 3, Dst: 0, Step: 3, Chunk: 0, Type: ir.CommRecv},
				{Src: 3, Dst: 1, Step: 3, Chunk: 0, Type: ir.CommRecv},
				{Src: 3, Dst: 2, Step: 3, Chunk: 0, Type: ir.CommRecv},
			},
		},
	} {
		if _, err := Compile(context.Background(), bad, tp, Options{}); err == nil {
			t.Errorf("%s: incorrect collective must fail verification", bad.Name)
		}
	}
}

func TestCompileDSL(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	src := `
def ResCCLAlgo(nRanks=4, AlgoName="Ring", OpType="Allgather"):
    N = 4
    for r in range(0, N):
        peer = (r+1)%N
        for step in range(0, N-1):
            transfer(r, peer, step, (r-step)%N, recv)
`
	c, err := CompileDSL(context.Background(), src, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Phases.Parse <= 0 {
		t.Error("DSL compile must record parse time")
	}
	if c.Algo.Name != "Ring" {
		t.Errorf("algorithm name %q", c.Algo.Name)
	}
	if _, err := CompileDSL(context.Background(), "garbage(", tp, Options{}); err == nil {
		t.Error("bad source must fail")
	}
}

func TestAllocPolicies(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllGather(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Compile(context.Background(), algo, tp, Options{Alloc: AllocConnectionBased})
	if err != nil {
		t.Fatal(err)
	}
	state, err := Compile(context.Background(), algo, tp, Options{Alloc: AllocStateBased})
	if err != nil {
		t.Fatal(err)
	}
	if state.Kernel.NTBs() > conn.Kernel.NTBs() {
		t.Errorf("state-based (%d TBs) worse than connection-based (%d)",
			state.Kernel.NTBs(), conn.Kernel.NTBs())
	}
	if _, err := Compile(context.Background(), algo, tp, Options{Alloc: AllocPolicy(9)}); err == nil {
		t.Error("unknown alloc policy must fail")
	}
	if !strings.Contains(AllocStateBased.String(), "state") {
		t.Error("alloc policy string")
	}
}

func TestPolicyOption(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sched.Policy{sched.PolicyHPDS, sched.PolicyRR, sched.PolicySequential} {
		c, err := Compile(context.Background(), algo, tp, Options{Policy: pol})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if c.Pipeline.Policy != pol {
			t.Errorf("policy %v not applied", pol)
		}
	}
}

// The Eq. 3–5 estimates must reproduce the paper's ordering at large
// micro-batch counts (task ≤ stage ≤ algorithm) and roughly anticipate
// the simulated backends.
func TestEstimateStrategiesOrdering(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	algo, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(algo, tp)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateStrategies(g, 1<<30, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if est.MicroBatches < 32 {
		t.Fatalf("expected many micro-batches, got %d", est.MicroBatches)
	}
	// Eq. 6 guarantees task-level beats both alternatives at large n;
	// stage vs algorithm can go either way (fewer bubbles vs added
	// contention, §3).
	if !(est.TTask < est.TStage && est.TTask < est.TAlgorithm) {
		t.Errorf("Eq. 6 violated: task %g should undercut stage %g and algorithm %g",
			est.TTask, est.TStage, est.TAlgorithm)
	}
	if est.TasksOnBottleneck <= 0 {
		t.Error("no bottleneck identified")
	}
	// The task-level estimate is a lower bound on the simulated ResCCL
	// run, and should be within 2x of it.
	c, err := Compile(context.Background(), algo, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Topo: tp, Kernel: c.Kernel, BufferBytes: 1 << 30, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion < est.TTask*0.99 {
		t.Errorf("simulated ResCCL (%g) beat the Eq. 5 lower bound (%g)", res.Completion, est.TTask)
	}
	if res.Completion > est.TTask*2 {
		t.Errorf("simulated ResCCL (%g) more than 2x the Eq. 5 bound (%g) — model drift", res.Completion, est.TTask)
	}
	if !strings.Contains(est.String(), "task-level") {
		t.Error("estimate String() incomplete")
	}
}
