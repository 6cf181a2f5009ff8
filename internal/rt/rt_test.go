package rt

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// Every backend's kernel for every algorithm family must execute under
// real concurrency without deadlock and produce the operator's correct
// result in every micro-batch; a corrupted buffer must fail Verify.
func TestAllKernelsExecuteCorrectly(t *testing.T) {
	type c struct {
		name        string
		nNodes, gpn int
		build       func(int, int) (*ir.Algorithm, error)
	}
	cases := []c{
		{"hm-ar", 2, 4, expert.HMAllReduce},
		{"hm-ag", 2, 4, expert.HMAllGather},
		{"hm-rs", 2, 4, expert.HMReduceScatter},
		{"taccl-ar", 2, 4, synth.TACCLAllReduce},
		{"teccl-ag", 2, 4, synth.TECCLAllGather},
		{"mesh-ar", 1, 8, func(_, g int) (*ir.Algorithm, error) { return expert.MeshAllReduce(g) }},
		{"tree-ar", 1, 8, func(_, g int) (*ir.Algorithm, error) { return expert.TreeAllReduce(g) }},
	}
	backends := []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()}
	for _, tc := range cases {
		algo, err := tc.build(tc.nNodes, tc.gpn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tp := topo.New(tc.nNodes, tc.gpn, topo.A100())
		for _, b := range backends {
			plan, err := b.Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name(), err)
			}
			res, err := Execute(Config{Kernel: plan.Kernel, MicroBatches: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name(), err)
			}
			if err := res.Verify(); err != nil {
				t.Errorf("%s/%s: %v", tc.name, b.Name(), err)
			}
			want := 3 * len(plan.Kernel.Graph.Tasks)
			if res.Instances != want {
				t.Errorf("%s/%s: %d instances, want %d", tc.name, b.Name(), res.Instances, want)
			}
			// Every delivered buffer must match its provenance, including
			// locations the postcondition leaves unconstrained (a
			// ReduceScatter non-owner's partial sum).
			res.States[2].Chunk(0, ir.ChunkID(algo.NChunks-1))[0]++
			if err := res.Verify(); err == nil {
				t.Errorf("%s/%s: corrupted buffer passed verification", tc.name, b.Name())
			}
		}
	}
}

func TestSingleMicroBatch(t *testing.T) {
	algo, err := expert.RingAllGather(6)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New(1, 6, topo.A100())
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(Config{Kernel: plan.Kernel}) // default 1 micro-batch
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != 1 {
		t.Fatalf("states = %d, want 1", len(res.States))
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// A kernel whose two thread blocks disagree on rendezvous order must be
// caught by the watchdog rather than hanging the process.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	algo := &ir.Algorithm{
		Name: "crossed", Op: ir.OpAllReduce, NRanks: 2, NChunks: 2,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
			{Src: 0, Dst: 1, Step: 1, Chunk: 1, Type: ir.CommRecv},
		},
	}
	tp := topo.New(1, 2, topo.A100())
	g, err := dag.Build(algo, tp)
	if err != nil {
		t.Fatal(err)
	}
	send0, recv0 := g.Tasks[0].Primitives()
	send1, recv1 := g.Tasks[1].Primitives()
	k := &kernel.Kernel{
		Name:      "crossed",
		Graph:     g,
		SendTB:    []int{0, 0},
		RecvTB:    []int{1, 1},
		LinkPreds: dag.CSR{Off: make([]int32, 3)},
		TBs: []*kernel.TBProgram{
			// Sender issues task 0 then 1; receiver expects 1 then 0.
			{ID: 0, Rank: 0, Order: kernel.TaskMajor, Label: "send", Slots: []ir.Primitive{send0, send1}},
			{ID: 1, Rank: 1, Order: kernel.TaskMajor, Label: "recv", Slots: []ir.Primitive{recv1, recv0}},
		},
	}
	_, err = Execute(Config{Kernel: k, MicroBatches: 1, Watchdog: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("crossed rendezvous order should deadlock and be caught")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error should mention deadlock: %v", err)
	}
}

func TestNilKernelRejected(t *testing.T) {
	if _, err := Execute(Config{}); err == nil {
		t.Fatal("nil kernel should be rejected")
	}
}
