package replan

import (
	"errors"
	"reflect"
	"testing"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/verify"
)

func initialHoldings(t *testing.T, op ir.OpType, nRanks, nChunks int) *verify.Holdings {
	t.Helper()
	h, err := verify.InitialFrom(op, nRanks, nChunks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func surviving(tp *topo.Topology) []bool {
	out := make([]bool, tp.NRanks())
	for r := range out {
		out[r] = tp.RankAlive(ir.Rank(r))
	}
	return out
}

// TestHealthyFromScratch: on an intact topology the planner must carry
// each operator from its precondition to the full healthy postcondition
// — the degenerate replan is a complete collective.
func TestHealthyFromScratch(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	cases := []struct {
		op      ir.OpType
		nChunks int
	}{
		{ir.OpAllReduce, 4},
		{ir.OpReduceScatter, 4},
		{ir.OpAllGather, 4},
		{ir.OpBroadcast, 4},
		{ir.OpAllToAll, 16},
	}
	for _, tc := range cases {
		h := initialHoldings(t, tc.op, 4, tc.nChunks)
		rp, err := Build("scratch", h, tp)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if rp.Algo == nil {
			t.Fatalf("%v: planner emitted no transfers from the bare precondition", tc.op)
		}
		if len(rp.LostChunks) != 0 {
			t.Fatalf("%v: healthy replan declared losses: %v", tc.op, rp.LostChunks)
		}
		if _, err := verify.Check(tc.op, 4, tc.nChunks, nil, rp.Algo.Sorted(), verify.Expect{}); err != nil {
			t.Fatalf("%v: repair plan fails the healthy postcondition: %v", tc.op, err)
		}
	}
}

// TestDeadRankDegraded: with a rank carved out, the plan must complete
// the degraded postcondition and declare exactly the dead rank's
// contributions lost (AllReduce: nothing had been aggregated yet).
func TestDeadRankDegraded(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	carved, err := tp.Carve(nil, []ir.Rank{3})
	if err != nil {
		t.Fatal(err)
	}
	h := initialHoldings(t, ir.OpAllReduce, 4, 4)
	rp, err := Build("degraded", h, carved)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		if !rp.Lost[c].Equal(verify.SetOf(3)) {
			t.Fatalf("chunk %d: lost %v, want {3}", c, rp.Lost[c])
		}
	}
	exp := verify.Expect{Surviving: surviving(carved), Lost: rp.Lost}
	if _, err := verify.Check(ir.OpAllReduce, 4, 4, nil, rp.Algo.Sorted(), exp); err != nil {
		t.Fatalf("degraded repair plan rejected: %v", err)
	}
}

// TestPartialProgressPreserved: contributions already merged into a
// surviving rank before the failure must survive the replan — the
// planner reuses partial aggregates instead of redoing (or losing) them.
func TestPartialProgressPreserved(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	carved, err := tp.Carve(nil, []ir.Rank{3})
	if err != nil {
		t.Fatal(err)
	}
	h := initialHoldings(t, ir.OpAllReduce, 4, 1)
	// Before rank 3 died it had merged its term into rank 2.
	if err := h.Apply(ir.Transfer{Src: 3, Dst: 2, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy}); err != nil {
		t.Fatal(err)
	}
	rp, err := Build("partial", h, carved)
	if err != nil {
		t.Fatal(err)
	}
	if !rp.Lost[0].Empty() {
		t.Fatalf("contribution already aggregated was declared lost: %v", rp.Lost[0])
	}
	trace := []ir.Transfer{{Src: 3, Dst: 2, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy}}
	trace = append(trace, rp.Algo.Sorted()...)
	exp := verify.Expect{Surviving: surviving(carved)}
	if _, err := verify.Check(ir.OpAllReduce, 4, 1, nil, trace, exp); err != nil {
		t.Fatalf("repair over partial progress rejected: %v", err)
	}
}

// TestPartitioned: isolating a node entirely must fail with the typed
// ErrPartitioned, not plan a silent shortfall.
func TestPartitioned(t *testing.T) {
	tp := topo.New(2, 2, topo.A100()) // one shared NIC per node
	eg, in := tp.NICResources(0)
	carved, err := tp.Carve([]topo.ResourceID{eg, in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := initialHoldings(t, ir.OpAllReduce, 4, 4)
	if _, err := Build("split", h, carved); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("isolated node produced %v, want ErrPartitioned", err)
	}
}

// TestUnrecoverable: carving out every rank must fail typed.
func TestUnrecoverable(t *testing.T) {
	tp := topo.New(1, 2, topo.A100())
	carved, err := tp.Carve(nil, []ir.Rank{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	h := initialHoldings(t, ir.OpAllReduce, 2, 2)
	if _, err := Build("void", h, carved); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("rankless topology produced %v, want ErrUnrecoverable", err)
	}
}

// TestLostCopyDeclared: an AllGather chunk whose only copy died with its
// rank is declared lost and excused from the postcondition.
func TestLostCopyDeclared(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	carved, err := tp.Carve(nil, []ir.Rank{1})
	if err != nil {
		t.Fatal(err)
	}
	h := initialHoldings(t, ir.OpAllGather, 4, 4)
	rp, err := Build("lost-copy", h, carved)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 1 lived only on rank 1.
	if !rp.Lost[1].Equal(verify.SetOf(1)) {
		t.Fatalf("chunk 1 lost set %v, want {1}", rp.Lost[1])
	}
	if !reflect.DeepEqual(rp.LostChunks, []ir.ChunkID{1}) {
		t.Fatalf("lost chunks %v, want [1]", rp.LostChunks)
	}
	exp := verify.Expect{Surviving: surviving(carved), Lost: rp.Lost}
	if _, err := verify.Check(ir.OpAllGather, 4, 4, nil, rp.Algo.Sorted(), exp); err != nil {
		t.Fatalf("degraded allgather repair rejected: %v", err)
	}
}

// TestDeterministic: equal inputs must yield byte-identical plans.
func TestDeterministic(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	eg, _ := tp.NICResources(0)
	carved, err := tp.Carve([]topo.ResourceID{eg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Plan {
		h := initialHoldings(t, ir.OpAllReduce, 8, 8)
		rp, err := Build("det", h, carved)
		if err != nil {
			t.Fatal(err)
		}
		return rp
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("plans differ across identical builds")
	}
}
