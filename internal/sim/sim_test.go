package sim

import (
	"context"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

func compileResCCL(t *testing.T, algo *ir.Algorithm, tp *topo.Topology) *backend.Plan {
	t.Helper()
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func run(t *testing.T, plan *backend.Plan, tp *topo.Topology, buf int64) *Result {
	t.Helper()
	res, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: buf, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatalf("%s/%s: %v", plan.Backend, plan.Algo.Name, err)
	}
	return res
}

func TestPlanFor(t *testing.T) {
	p := simcost.PlanFor(4<<30, 1<<20, 32)
	if p.NMicroBatches != 128 {
		t.Errorf("4GiB/32 chunks: n = %d, want 128", p.NMicroBatches)
	}
	if p.ChunkBytes != 1<<20 {
		t.Errorf("chunk = %f, want 1MiB", p.ChunkBytes)
	}
	// Small buffers shrink the chunk, not drop below one micro-batch.
	p = simcost.PlanFor(8<<20, 1<<20, 32)
	if p.NMicroBatches != 1 {
		t.Errorf("8MiB/32 chunks: n = %d, want 1", p.NMicroBatches)
	}
	if p.ChunkBytes != (8<<20)/32 {
		t.Errorf("chunk = %f, want 256KiB", p.ChunkBytes)
	}
	// Degenerate inputs stay safe.
	p = simcost.PlanFor(0, 0, 4)
	if p.NMicroBatches < 1 || p.ChunkBytes <= 0 {
		t.Errorf("degenerate plan: %+v", p)
	}
}

// A single-node ring AllGather through the full ResCCL pipeline must
// complete, touch every intra-node link, and finish in a physically
// sensible time (not faster than the data could move over one port).
func TestRingAllGatherCompletes(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	a, err := expert.RingAllGather(4)
	if err != nil {
		t.Fatal(err)
	}
	plan := compileResCCL(t, a, tp)
	res := run(t, plan, tp, 64<<20)
	if res.Completion <= 0 {
		t.Fatal("zero completion time")
	}
	if res.Instances != 12*res.Plan.NMicroBatches {
		t.Errorf("instances = %d, want %d", res.Instances, 12*res.Plan.NMicroBatches)
	}
	// Lower bound: each rank must push (n-1)/n of the buffer over its
	// egress at most at TBCapIntra.
	minTime := float64(64<<20) * 3 / 4 / tp.TBCapIntra
	if res.Completion < minTime {
		t.Errorf("completion %.2gs is faster than physics allows (%.2gs)", res.Completion, minTime)
	}
	used := 0
	for _, busy := range res.LinkBusy {
		if busy > 0 {
			used++
		}
	}
	if used != 4 {
		t.Errorf("ring-4 should use 4 links, used %d", used)
	}
	util := res.MeanLinkUtilization()
	if util <= 0 || util > 1.0000001 {
		t.Errorf("mean link utilization %f out of range", util)
	}
}

// All three backends must complete the same collective; the result is
// deterministic.
func TestAllBackendsComplete(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	backends := []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()}
	for _, b := range backends {
		plan, err := b.Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		r1 := run(t, plan, tp, 256<<20)
		r2 := run(t, plan, tp, 256<<20)
		if r1.Completion != r2.Completion {
			t.Errorf("%s: nondeterministic completion %v vs %v", b.Name(), r1.Completion, r2.Completion)
		}
		if r1.AlgoBW <= 0 {
			t.Errorf("%s: nonpositive bandwidth", b.Name())
		}
	}
}

// ResCCL must beat the baselines on large buffers for the expert
// algorithm — the headline result (Fig. 6).
func TestResCCLFasterOnLargeBuffers(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	algo, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	bw := map[string]float64{}
	for _, b := range []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()} {
		plan, err := b.Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		res := run(t, plan, tp, 1<<30)
		bw[b.Name()] = res.AlgoBW
	}
	if bw["ResCCL"] <= bw["MSCCL"] {
		t.Errorf("ResCCL (%.2f GB/s) not faster than MSCCL (%.2f GB/s)", bw["ResCCL"]/1e9, bw["MSCCL"]/1e9)
	}
	if bw["ResCCL"] <= bw["NCCL"] {
		t.Errorf("ResCCL (%.2f GB/s) not faster than NCCL (%.2f GB/s)", bw["ResCCL"]/1e9, bw["NCCL"]/1e9)
	}
}

// TB accounting invariants: exec+sync within lifetime, release at or
// before completion, every TB retired.
func TestTBAccounting(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.BuildOn("synth:teccl-allreduce", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewMSCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, plan, tp, 128<<20)
	for id, tb := range res.TBs {
		if tb.Release <= 0 || tb.Release > res.Completion+1e-12 {
			t.Errorf("TB %d (%s): release %f outside [0, %f]", id, plan.Kernel.TBs[id].Label, tb.Release, res.Completion)
		}
		life := tb.Release // every TB arrives at time 0
		if tb.Exec+tb.Sync > life+1e-9 {
			t.Errorf("TB %d: exec %f + sync %f exceeds lifetime %f", id, tb.Exec, tb.Sync, life)
		}
		if tb.Exec <= 0 {
			t.Errorf("TB %d: no execution time", id)
		}
	}
}

// The interpreter mode must be slower than direct execution of the same
// kernel (Fig. 3).
func TestInterpreterOverhead(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllGather(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := compileResCCL(t, algo, tp)
	direct := run(t, plan, tp, 256<<20)

	interp := *plan.Kernel
	interp.Mode = 1 // kernel.ModeInterpreted
	res2, err := Run(Config{Topo: tp, Kernel: &interp, BufferBytes: 256 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completion <= direct.Completion {
		t.Errorf("interpreted (%f) not slower than direct (%f)", res2.Completion, direct.Completion)
	}
}

// Buffer scaling: doubling the buffer should roughly double completion
// time at large sizes (bandwidth-bound regime).
func TestBandwidthBoundScaling(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan := compileResCCL(t, algo, tp)
	r1 := run(t, plan, tp, 1<<30)
	r2 := run(t, plan, tp, 2<<30)
	ratio := r2.Completion / r1.Completion
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2x buffer changed completion by %fx, want ≈2x", ratio)
	}
}

// instr returns the k-th instruction (slot, micro-batch) of an nSlots
// program under its loop order: task-major runs every micro-batch of a
// slot before the next slot, micro-batch-major every slot of a
// micro-batch before the next micro-batch.
func instr(order kernel.MBOrder, nSlots, k, nMB int) (slot, mb int) {
	if order == kernel.TaskMajor {
		return k / nMB, k % nMB
	}
	return k % nSlots, k / nSlots
}

// TestStepMatchesInstr walks step over programs of both loop orders
// and holds every position to instr, and the last to nSlots·nMB.
func TestStepMatchesInstr(t *testing.T) {
	// 3 slots × 2 micro-batches, spelled out.
	for order, want := range map[kernel.MBOrder][][2]int{
		kernel.TaskMajor: {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {2, 1}},
		kernel.MBMajor:   {{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}},
	} {
		for k, w := range want {
			if slot, mb := instr(order, 3, k, 2); slot != w[0] || mb != w[1] {
				t.Fatalf("%v instruction %d = (%d, %d), want %v", order, k, slot, mb, w)
			}
		}
	}
	for _, order := range []kernel.MBOrder{kernel.TaskMajor, kernel.MBMajor} {
		for nSlots := 1; nSlots <= 4; nSlots++ {
			for nMB := 1; nMB <= 5; nMB++ {
				tb := &tbState{prog: &kernel.TBProgram{Order: order, Slots: make([]ir.Primitive, nSlots)}}
				n := nSlots * nMB
				for k := 0; k < n; k++ {
					if slot, mb := instr(order, nSlots, k, nMB); tb.slot != slot || tb.mb != mb {
						t.Fatalf("%v, %d slots × %d micro-batches: instruction %d at (%d, %d), instr says (%d, %d)",
							order, nSlots, nMB, k, tb.slot, tb.mb, slot, mb)
					}
					if last := step(tb, nMB); last != (k == n-1) {
						t.Fatalf("%v, %d slots × %d micro-batches: step after instruction %d of %d reports last=%v",
							order, nSlots, nMB, k, n, last)
					}
				}
			}
		}
	}
}
