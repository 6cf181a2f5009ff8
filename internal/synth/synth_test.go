package synth

import (
	"testing"

	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/ir"
)

var shapes = [][2]int{{2, 4}, {2, 8}, {4, 4}, {4, 8}, {3, 3}}

func TestTACCLAllGatherCorrect(t *testing.T) {
	for _, c := range shapes {
		a, err := TACCLAllGather(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestTACCLAllReduceCorrect(t *testing.T) {
	for _, c := range shapes {
		a, err := TACCLAllReduce(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestTECCLAllGatherCorrect(t *testing.T) {
	for _, c := range shapes {
		a, err := TECCLAllGather(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestTECCLAllReduceCorrect(t *testing.T) {
	for _, c := range shapes {
		a, err := TECCLAllReduce(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

// TACCL plans must exhibit the relay concentration the paper observes:
// only a strict subset of local indices carries inter-node traffic when
// nodes are few.
func TestTACCLRelayConcentration(t *testing.T) {
	a, err := TACCLAllGather(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	interSenders := map[ir.Rank]bool{}
	for _, tr := range a.Transfers {
		if int(tr.Src)/8 != int(tr.Dst)/8 {
			interSenders[tr.Src] = true
		}
	}
	if len(interSenders) >= 16 {
		t.Errorf("TACCL plan uses %d inter-node senders; expected relay concentration (<16)", len(interSenders))
	}
}

// Synthesized plans carry no stage annotations: MSCCL executes them at
// algorithm level (§2.1).
func TestSynthesizedPlansHaveNoStages(t *testing.T) {
	builders := map[string]func(int, int) (*ir.Algorithm, error){
		"taccl-ag": TACCLAllGather, "taccl-ar": TACCLAllReduce,
		"teccl-ag": TECCLAllGather, "teccl-ar": TECCLAllReduce,
	}
	for name, b := range builders {
		a, err := b(2, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.NStages() != 1 {
			t.Errorf("%s: synthesized plan has %d stages, want 1", name, a.NStages())
		}
	}
}

func TestSynthRejectsBadSizes(t *testing.T) {
	if _, err := TACCLAllGather(1, 1); err == nil {
		t.Error("TACCLAllGather(1,1) should fail")
	}
	if _, err := TECCLAllReduce(2, 1); err == nil {
		t.Error("TECCLAllReduce(2,1) should fail")
	}
}

// Sparse TACCL plans: every GPU talks to at most ring-next, ring-prev
// and relay/owner peers — far fewer connections than a mesh, the
// property that lets ResCCL merge TBs down to Table 3's 4-6 per GPU.
func TestTACCLPlansAreSparse(t *testing.T) {
	a, err := TACCLAllGather(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	out := map[ir.Rank]map[ir.Rank]bool{}
	for _, tr := range a.Transfers {
		if out[tr.Src] == nil {
			out[tr.Src] = map[ir.Rank]bool{}
		}
		out[tr.Src][tr.Dst] = true
	}
	for r, peers := range out {
		if len(peers) > 3 {
			t.Errorf("rank %d has %d outgoing connections; sparse plans should have ≤3", r, len(peers))
		}
	}
}

// The relay function must concentrate node-pair traffic: for a fixed
// (src,dst) node pair every inter-node transfer uses one GPU pair.
func TestRelayDeterminism(t *testing.T) {
	a, err := TACCLAllGather(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]int]map[[2]ir.Rank]bool{}
	for _, tr := range a.Transfers {
		sn, dn := int(tr.Src)/4, int(tr.Dst)/4
		if sn == dn {
			continue
		}
		key := [2]int{sn, dn}
		if pairs[key] == nil {
			pairs[key] = map[[2]ir.Rank]bool{}
		}
		pairs[key][[2]ir.Rank{tr.Src, tr.Dst}] = true
	}
	for np, conns := range pairs {
		if len(conns) != 1 {
			t.Errorf("node pair %v uses %d GPU pairs, want 1 (relay concentration)", np, len(conns))
		}
	}
}
