package verify

import (
	"reflect"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
)

// cleanAlgos builds one expert plan per operator; their sorted transfer
// lists are valid traces of healthy executions.
func cleanAlgos(t *testing.T) []*ir.Algorithm {
	t.Helper()
	var out []*ir.Algorithm
	for _, f := range []func() (*ir.Algorithm, error){
		func() (*ir.Algorithm, error) { return expert.RingAllReduce(4) },
		func() (*ir.Algorithm, error) { return expert.RingAllGather(4) },
		func() (*ir.Algorithm, error) { return expert.RingReduceScatter(4) },
		func() (*ir.Algorithm, error) { return expert.BinomialBroadcast(4) },
		func() (*ir.Algorithm, error) { return expert.DirectAllToAll(4) },
		func() (*ir.Algorithm, error) { return expert.HMAllReduce(2, 2) },
		func() (*ir.Algorithm, error) { return expert.TreeAllReduce(5) },
		func() (*ir.Algorithm, error) { return expert.Build("hier-allreduce", 64, 8) },
	} {
		a, err := f()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestCleanTracesPass: every expert plan's trace must replay cleanly and
// satisfy the healthy postcondition.
func TestCleanTracesPass(t *testing.T) {
	for _, a := range cleanAlgos(t) {
		if _, err := Check(a.Op, a.NRanks, a.NChunks, nil, a.Sorted(), Expect{}); err != nil {
			t.Errorf("%s (%v): clean trace rejected: %v", a.Name, a.Op, err)
		}
	}
}

// TestCorruptedTraceFlagged: dropping a reduce or copy step from an
// AllReduce trace must fail the postcondition, and duplicating a reduce
// must be caught as a double count during replay — the verifier cannot
// be fooled by a plausible-looking but wrong trace, at any scale.
func TestCorruptedTraceFlagged(t *testing.T) {
	ring, err := expert.RingAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := expert.Build("hier-allreduce", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*ir.Algorithm{ring, hier} {
		trace := a.Sorted()
		first := func(typ ir.CommType) int {
			for i, tr := range trace {
				if tr.Type == typ {
					return i
				}
			}
			t.Fatalf("%s trace has no %v step", a.Name, typ)
			return -1
		}
		rrc, recv := first(ir.CommRecvReduceCopy), first(ir.CommRecv)

		for _, i := range []int{rrc, recv} {
			dropped := append(append([]ir.Transfer(nil), trace[:i]...), trace[i+1:]...)
			if _, err := Check(a.Op, a.NRanks, a.NChunks, nil, dropped, Expect{}); err == nil {
				t.Errorf("%s: trace missing %v passed verification", a.Name, trace[i])
			}
		}

		dup := append(append([]ir.Transfer(nil), trace[:rrc+1]...), trace[rrc:]...)
		if _, err := Replay(a.Op, a.NRanks, a.NChunks, nil, dup); err == nil {
			t.Errorf("%s: trace reducing the same contribution twice passed replay", a.Name)
		} else if !strings.Contains(err.Error(), "double-counts") {
			t.Errorf("%s: duplicated reduce flagged with wrong error: %v", a.Name, err)
		}
	}
}

// TestUndeliveredReadFlagged: a transfer sourcing a location nothing has
// delivered must fail replay immediately.
func TestUndeliveredReadFlagged(t *testing.T) {
	// AllGather: rank 1 does not initially hold chunk 0 (owner is rank 0).
	trace := []ir.Transfer{{Src: 1, Dst: 2, Step: 0, Chunk: 0, Type: ir.CommRecv}}
	if _, err := Replay(ir.OpAllGather, 4, 4, nil, trace); err == nil {
		t.Fatal("read of an undelivered chunk passed replay")
	}
}

// TestDegradedPostcondition: with rank 3's contribution declared lost,
// surviving ranks must hold exactly {0,1,2} — holding the full set or
// missing a survivor's term must both fail.
func TestDegradedPostcondition(t *testing.T) {
	const n = 4
	h, err := InitialFrom(ir.OpAllReduce, n, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregate 0←1, 0←2, then disseminate to 1 and 2; rank 3 is dead.
	trace := []ir.Transfer{
		{Src: 1, Dst: 0, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
		{Src: 2, Dst: 0, Step: 1, Chunk: 0, Type: ir.CommRecvReduceCopy},
		{Src: 0, Dst: 1, Step: 2, Chunk: 0, Type: ir.CommRecv},
		{Src: 0, Dst: 2, Step: 2, Chunk: 0, Type: ir.CommRecv},
	}
	for _, tr := range trace {
		if err := h.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	exp := Expect{
		Surviving: []bool{true, true, true, false},
		Lost:      []Set{SetOf(3)},
	}
	if err := h.Postcondition(exp); err != nil {
		t.Fatalf("degraded postcondition rejected a correct degraded run: %v", err)
	}
	// The same holdings must fail the healthy postcondition: rank 3's
	// term is missing everywhere.
	if err := h.Postcondition(Expect{}); err == nil {
		t.Fatal("healthy postcondition accepted a run missing rank 3's contribution")
	}
	// And a survivor's lost term must not be excused.
	if err := h.Postcondition(Expect{Surviving: exp.Surviving, Lost: []Set{SetOf(2, 3)}}); err == nil {
		t.Fatal("postcondition accepted holdings containing a contribution declared lost")
	}
}

// TestInitialOverride: a repair-style precondition matrix replaces the
// operator default validity.
func TestInitialOverride(t *testing.T) {
	initial := [][]bool{
		{true, false},
		{false, false},
	}
	h, err := InitialFrom(ir.OpAllGather, 2, 2, initial)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Valid(0, 0) || h.Valid(0, 1) || h.Valid(1, 0) || h.Valid(1, 1) {
		t.Fatalf("override not honoured: %v %v %v %v",
			h.Valid(0, 0), h.Valid(0, 1), h.Valid(1, 0), h.Valid(1, 1))
	}
	if got := h.Set(0, 0); !got.Equal(SetOf(0)) {
		t.Fatalf("origin of overridden location wrong: %v", got)
	}
}

// TestSetWords: sets of any width agree with their members across
// word boundaries, and compare by content whatever their length.
func TestSetWords(t *testing.T) {
	a, b := SetOf(0, 63, 64), SetOf(64, 130)
	if got := a.Or(b).Ranks(); !reflect.DeepEqual(got, []ir.Rank{0, 63, 64, 130}) {
		t.Fatalf("union %v", got)
	}
	if !a.Intersects(b) || a.And(b).String() != "[64]" || a.AndNot(b).Count() != 2 {
		t.Fatalf("intersection of %v and %v wrong", a, b)
	}
	if !SetOf(3).Equal(FullSet(200).AndNot(FullSet(200).AndNot(SetOf(3)))) || SetOf(3).Equal(SetOf(3, 199)) {
		t.Fatal("Equal must compare members, not widths")
	}
	if FullSet(130).Count() != 130 || FullSet(128).Count() != 128 || !FullSet(65).Has(64) || FullSet(65).Has(65) {
		t.Fatal("FullSet has the wrong members")
	}
	var empty Set
	if !empty.Empty() || !SetOf(70).AndNot(SetOf(70)).Empty() || empty.Has(5) {
		t.Fatal("empty set misreported")
	}
}
