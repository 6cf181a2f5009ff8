package backend

import (
	"context"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

func hmAR(t *testing.T, nNodes, gpn int) *ir.Algorithm {
	t.Helper()
	a, err := expert.HMAllReduce(nNodes, gpn)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNCCLIgnoresCustomAlgorithm(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	plan, err := NewNCCL().Compile(context.Background(), Request{Algo: hmAR(t, 2, 8), Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Algo.Name != "Ring-AllReduce" {
		t.Errorf("NCCL executed %q, want its own ring", plan.Algo.Name)
	}
	if plan.Kernel.Mode != kernel.ModeInterpreted {
		t.Error("NCCL must run interpreted")
	}
	if !plan.Kernel.MBBarrier {
		t.Error("NCCL must execute lazily (per-micro-batch barrier)")
	}
	// 4 channels × (1 send + 1 recv) per rank.
	if got := plan.Kernel.MaxTBsPerRank(); got != 8 {
		t.Errorf("NCCL TBs per GPU = %d, want 8", got)
	}
}

func TestNCCLRingsBalanceNICs(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	rings := ringOrders(tp, 4)
	// Every channel's node-boundary egress and ingress NICs must be
	// distinct across channels.
	egress := map[int]bool{}
	ingress := map[int]bool{}
	for _, ring := range rings {
		exit := ir.Rank(ring[7])  // last GPU of node 0 in ring order
		entry := ir.Rank(ring[8]) // first GPU of node 1
		if tp.Node(exit) != 0 || tp.Node(entry) != 1 {
			t.Fatalf("ring order does not cross nodes where expected: %v", ring)
		}
		if egress[tp.NIC(exit)] {
			t.Errorf("egress NIC %d reused across channels", tp.NIC(exit))
		}
		if ingress[tp.NIC(entry)] {
			t.Errorf("ingress NIC %d reused across channels", tp.NIC(entry))
		}
		egress[tp.NIC(exit)] = true
		ingress[tp.NIC(entry)] = true
	}
}

func TestNCCLZigzagDisjointEdges(t *testing.T) {
	tp := topo.New(1, 8, topo.A100())
	rings := ringOrders(tp, 4)
	seen := map[[2]int]int{}
	for ch, ring := range rings {
		for i := 0; i < 7; i++ { // within-node edges only
			e := [2]int{ring[i], ring[i+1]}
			if prev, dup := seen[e]; dup {
				t.Errorf("edge %v used by channels %d and %d", e, prev, ch)
			}
			seen[e] = ch
		}
	}
}

func TestMSCCLStageChannels(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	plan, err := NewMSCCL().Compile(context.Background(), Request{Algo: hmAR(t, 2, 8), Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	// Table 3 Topo2: 30 TBs per GPU for the expert AllReduce — the
	// intra stages duplicated onto two channels (2×14) plus the merged
	// inter channel (2).
	if got := plan.Kernel.MaxTBsPerRank(); got != 30 {
		t.Errorf("MSCCL TBs per GPU = %d, want 30 (Table 3 Topo2)", got)
	}
	if plan.Kernel.MBBarrier {
		t.Error("stage-level execution must pipeline micro-batches (no barrier)")
	}
	// The duplicated intra channels must appear in labels.
	hasCh1 := false
	for _, tb := range plan.Kernel.TBs {
		if strings.Contains(tb.Label, ".ch1/") {
			hasCh1 = true
			break
		}
	}
	if !hasCh1 {
		t.Error("expected manually added intra channels (.ch1 labels)")
	}
}

func TestMSCCLLazyForSynthesized(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	algo, err := synth.TACCLAllGather(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewMSCCL().Compile(context.Background(), Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Kernel.MBBarrier {
		t.Error("synthesized plans (no stages) must run lazily")
	}
	if plan.Algo != algo {
		t.Error("MSCCL must execute the provided algorithm")
	}
}

func TestResCCLKernelShape(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	r := NewResCCL()
	plan, err := r.Compile(context.Background(), Request{Algo: hmAR(t, 2, 8), Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kernel.Mode != kernel.ModeDirect {
		t.Error("ResCCL must generate direct kernels")
	}
	if plan.Kernel.MBBarrier {
		t.Error("task-level execution has no micro-batch barrier")
	}
	if got := plan.Kernel.MaxTBsPerRank(); got != 16 {
		t.Errorf("ResCCL TBs per GPU = %d, want 16 (Table 3 Topo2)", got)
	}
}

func TestTable3TBCounts(t *testing.T) {
	// The paper's Table 3 "# TB" column for the expert algorithms.
	want := map[[2]int][2]int{ // {nodes,gpn} -> {MSCCL, ResCCL}
		{2, 4}: {14, 8},
		{2, 8}: {30, 16},
		{4, 4}: {14, 8},
		{4, 8}: {30, 16},
	}
	for shape, counts := range want {
		tp := topo.New(shape[0], shape[1], topo.A100())
		algo := hmAR(t, shape[0], shape[1])
		ms, err := NewMSCCL().Compile(context.Background(), Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatal(err)
		}
		if got := ms.Kernel.MaxTBsPerRank(); got != counts[0] {
			t.Errorf("%v MSCCL TBs = %d, want %d", shape, got, counts[0])
		}
		rs, err := NewResCCL().Compile(context.Background(), Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Kernel.MaxTBsPerRank(); got != counts[1] {
			t.Errorf("%v ResCCL TBs = %d, want %d", shape, got, counts[1])
		}
	}
}

func TestRequestValidation(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	for _, b := range []Backend{NewNCCL(), NewMSCCL(), NewResCCL()} {
		if _, err := b.Compile(context.Background(), Request{}); err == nil {
			t.Errorf("%s: empty request should fail", b.Name())
		}
		if _, err := b.Compile(context.Background(), Request{Topo: tp}); err == nil {
			t.Errorf("%s: missing algorithm should fail", b.Name())
		}
	}
	// Rank mismatch.
	if _, err := NewNCCL().Compile(context.Background(), Request{Algo: hmAR(t, 2, 8), Topo: tp}); err == nil {
		t.Error("NCCL: rank/topology mismatch should fail")
	}
}
