package expert

import (
	"testing"

	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/verify"
)

// Every expert algorithm must satisfy its operator's postcondition
// under collective.Check — the ground-truth correctness gate.

func TestRingAllGatherCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16, 31} {
		a, err := RingAllGather(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestRingReduceScatterCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		a, err := RingReduceScatter(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestRingAllReduceCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8, 16} {
		a, err := RingAllReduce(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestTreeAllReduceCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16, 32} {
		a, err := TreeAllReduce(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestHMAllGatherCorrect(t *testing.T) {
	for _, c := range [][2]int{{2, 4}, {2, 8}, {4, 4}, {4, 8}, {3, 2}} {
		a, err := HMAllGather(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestHMAllReduceCorrect(t *testing.T) {
	for _, c := range [][2]int{{2, 4}, {2, 8}, {4, 4}, {4, 8}, {3, 2}} {
		a, err := HMAllReduce(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestHMReduceScatterCorrect(t *testing.T) {
	for _, c := range [][2]int{{2, 4}, {2, 8}, {4, 4}, {4, 8}} {
		a, err := HMReduceScatter(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestChannelizedRingsCorrect(t *testing.T) {
	for _, ch := range []int{1, 2, 4} {
		for _, n := range []int{2, 4, 8} {
			ag, err := ChannelizedRingAllGather(n, ch, nil)
			if err != nil {
				t.Fatalf("ag n=%d ch=%d: %v", n, ch, err)
			}
			if err := collective.Check(ag); err != nil {
				t.Errorf("ag n=%d ch=%d: %v", n, ch, err)
			}
			ar, err := ChannelizedRingAllReduce(n, ch, nil)
			if err != nil {
				t.Fatalf("ar n=%d ch=%d: %v", n, ch, err)
			}
			if err := collective.Check(ar); err != nil {
				t.Errorf("ar n=%d ch=%d: %v", n, ch, err)
			}
			rs, err := ChannelizedRingReduceScatter(n, ch, nil)
			if err != nil {
				t.Fatalf("rs n=%d ch=%d: %v", n, ch, err)
			}
			if err := collective.Check(rs); err != nil {
				t.Errorf("rs n=%d ch=%d: %v", n, ch, err)
			}
		}
	}
}

// The TECCL emulations are correct on every shape, single-node
// included, carry no stage annotations, and refuse a one-GPU node.
func TestTECCLCorrect(t *testing.T) {
	for _, name := range []string{"synth:teccl-allgather", "synth:teccl-allreduce"} {
		for _, c := range [][2]int{{1, 3}, {1, 8}, {2, 4}, {2, 8}, {4, 4}, {4, 8}, {3, 3}} {
			a, err := BuildOn(name, c[0], c[1])
			if err != nil {
				t.Fatalf("%s %v: %v", name, c, err)
			}
			if err := collective.Check(a); err != nil {
				t.Errorf("%s nodes=%d gpn=%d: %v", name, c[0], c[1], err)
			}
			if a.NStages() != 1 {
				t.Errorf("%s %v: synthesized plan has %d stages, want 1", name, c, a.NStages())
			}
		}
		if _, err := BuildOn(name, 2, 1); err == nil {
			t.Errorf("%s on 2x1 should fail", name)
		}
	}
}

func TestHMStageBoundsAscending(t *testing.T) {
	a, err := HMAllReduce(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.NStages(); got != 4 {
		t.Fatalf("HM-AllReduce stages = %d, want 4", got)
	}
	for i := 1; i < len(a.StageBounds); i++ {
		if a.StageBounds[i] <= a.StageBounds[i-1] {
			t.Fatalf("stage bounds not ascending: %v", a.StageBounds)
		}
	}
	// Every stage must contain at least one transfer.
	counts := make([]int, a.NStages())
	for _, tr := range a.Transfers {
		counts[a.StageOf(tr.Step)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("stage %d has no transfers", s)
		}
	}
}

func TestPermutedRingsCorrect(t *testing.T) {
	rings := Rings{
		{0, 2, 4, 6, 1, 3, 5, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
	}
	for name, build := range map[string]func(int, int, Rings) (*ir.Algorithm, error){
		"ag": ChannelizedRingAllGather,
		"ar": ChannelizedRingAllReduce,
		"rs": ChannelizedRingReduceScatter,
	} {
		a, err := build(8, 2, rings)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("%s with permuted rings: %v", name, err)
		}
	}
}

func TestRingsRejectNonPermutation(t *testing.T) {
	bad := Rings{{0, 0, 1, 2}}
	if _, err := ChannelizedRingAllGather(4, 1, bad); err == nil {
		t.Error("expected non-permutation ring to be rejected")
	}
	short := Rings{{0, 1}}
	if _, err := ChannelizedRingAllGather(4, 1, short); err == nil {
		t.Error("expected short ring to be rejected")
	}
}

func TestBuilderRejectsBadSizes(t *testing.T) {
	if _, err := RingAllGather(1); err == nil {
		t.Error("RingAllGather(1) should fail")
	}
	if _, err := HMAllGather(1, 8); err == nil {
		t.Error("HMAllGather(1,8) should fail")
	}
	if _, err := HMAllReduce(4, 1); err == nil {
		t.Error("HMAllReduce(4,1) should fail")
	}
	if _, err := ChannelizedRingAllGather(4, 0, nil); err == nil {
		t.Error("ChannelizedRingAllGather(4,0) should fail")
	}
}

func TestOwnershipConvention(t *testing.T) {
	// Ring ReduceScatter must place chunk c's full sum on rank c.
	a, err := RingReduceScatter(6)
	if err != nil {
		t.Fatal(err)
	}
	h, err := verify.Replay(a.Op, a.NRanks, a.NChunks, nil, a.Sorted())
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		if got := h.Set(ir.Rank(c), ir.ChunkID(c)); !got.Equal(verify.FullSet(6)) {
			t.Errorf("chunk %d at owner: holds contributions %v, want all 6", c, got)
		}
	}
}

func TestBinomialBroadcastCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		a, err := BinomialBroadcast(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestHierarchicalBroadcastCorrect(t *testing.T) {
	for _, c := range [][2]int{{2, 4}, {2, 8}, {4, 4}, {3, 2}} {
		a, err := HierarchicalBroadcast(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("nodes=%d gpn=%d: %v", c[0], c[1], err)
		}
	}
}

func TestChannelizedRingBroadcastCorrect(t *testing.T) {
	for _, ch := range []int{1, 2, 4} {
		a, err := ChannelizedRingBroadcast(8, ch, nil)
		if err != nil {
			t.Fatalf("ch=%d: %v", ch, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("ch=%d: %v", ch, err)
		}
	}
	// Permuted rings must rotate so the root still originates the data.
	rings := Rings{{3, 1, 0, 2}}
	a, err := ChannelizedRingBroadcast(4, 1, rings)
	if err != nil {
		t.Fatal(err)
	}
	if err := collective.Check(a); err != nil {
		t.Error(err)
	}
}

func TestAllToAllCorrect(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		a, err := DirectAllToAll(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("direct n=%d: %v", n, err)
		}
	}
	for _, c := range [][2]int{{2, 4}, {2, 8}, {4, 4}, {3, 3}} {
		a, err := HierarchicalAllToAll(c[0], c[1])
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("hier %v: %v", c, err)
		}
	}
}

// Hierarchical AllToAll must aggregate inter-node traffic through
// relays: far fewer distinct inter-node connections than the direct
// exchange.
func TestHierarchicalAllToAllAggregates(t *testing.T) {
	direct, err := DirectAllToAll(16)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := HierarchicalAllToAll(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	countInter := func(a *ir.Algorithm) int {
		conns := map[[2]ir.Rank]bool{}
		for _, tr := range a.Transfers {
			if int(tr.Src)/8 != int(tr.Dst)/8 {
				conns[[2]ir.Rank{tr.Src, tr.Dst}] = true
			}
		}
		return len(conns)
	}
	if countInter(hier) >= countInter(direct) {
		t.Errorf("hierarchical (%d inter conns) should aggregate below direct (%d)",
			countInter(hier), countInter(direct))
	}
}

func TestBruckAllGatherCorrect(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 7, 8, 16} {
		a, err := BruckAllGather(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	// Bruck finishes in ⌈log₂ n⌉ rounds.
	a, _ := BruckAllGather(8)
	if got := a.MaxStep(); got != 2 {
		t.Errorf("bruck-8 max step = %d, want 2", got)
	}
}

func TestRHDAllReduceCorrect(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		a, err := RHDAllReduce(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := collective.Check(a); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
	if _, err := RHDAllReduce(6); err == nil {
		t.Error("non-power-of-two should be rejected")
	}
}

// Default names, for every operator the registry serves, a builder of
// that operator that BuildOn turns into a plan of the shape's ranks.
func TestDefaultBuildsOnEveryShape(t *testing.T) {
	ops := []ir.OpType{ir.OpAllGather, ir.OpAllReduce, ir.OpReduceScatter, ir.OpBroadcast, ir.OpAllToAll}
	for _, sh := range []struct{ nodes, gpn int }{{1, 8}, {2, 8}, {4, 1}, {3, 2}} {
		for _, op := range ops {
			name, ok := Default(op, sh.nodes, sh.gpn)
			if !ok {
				t.Fatalf("%v has no default", op)
			}
			if b, _ := Lookup(name); b.Op != op {
				t.Fatalf("%v on %dx%d: default %q implements %v", op, sh.nodes, sh.gpn, name, b.Op)
			}
			algo, err := BuildOn(name, sh.nodes, sh.gpn)
			if err != nil {
				t.Fatalf("%v on %dx%d: %q: %v", op, sh.nodes, sh.gpn, name, err)
			}
			if algo.NRanks != sh.nodes*sh.gpn {
				t.Fatalf("%q on %dx%d has %d ranks", name, sh.nodes, sh.gpn, algo.NRanks)
			}
		}
	}
	if _, ok := Default(ir.OpType(-1), 2, 8); ok {
		t.Error("an unknown operator has a default")
	}
	if _, err := BuildOn("no-such-algorithm", 2, 8); err == nil {
		t.Error("BuildOn built an unknown name")
	}
}
