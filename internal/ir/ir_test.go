package ir

import (
	"testing"
	"testing/quick"
)

func TestOpTypeRoundTrip(t *testing.T) {
	for _, op := range []OpType{OpAllGather, OpAllReduce, OpReduceScatter, OpBroadcast, OpAllToAll} {
		got, err := ParseOpType(op.String())
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if got != op {
			t.Errorf("round trip %v → %v", op, got)
		}
	}
	if _, err := ParseOpType("Gossip"); err == nil {
		t.Error("expected error for unknown op")
	}
}

func TestCommTypeRoundTrip(t *testing.T) {
	for _, ct := range []CommType{CommRecv, CommRecvReduceCopy} {
		got, err := ParseCommType(ct.String())
		if err != nil {
			t.Fatalf("%v: %v", ct, err)
		}
		if got != ct {
			t.Errorf("round trip %v → %v", ct, got)
		}
	}
	if _, err := ParseCommType("sendrecv"); err == nil {
		t.Error("expected error for unknown comm type")
	}
}

func TestTransferValidate(t *testing.T) {
	ok := Transfer{Src: 0, Dst: 1, Step: 0, Chunk: 0}
	if err := ok.Validate(2, 2); err != nil {
		t.Errorf("valid transfer rejected: %v", err)
	}
	cases := []Transfer{
		{Src: -1, Dst: 1, Step: 0, Chunk: 0},
		{Src: 0, Dst: 2, Step: 0, Chunk: 0},
		{Src: 0, Dst: 0, Step: 0, Chunk: 0},
		{Src: 0, Dst: 1, Step: -1, Chunk: 0},
		{Src: 0, Dst: 1, Step: 0, Chunk: 5},
	}
	for i, tr := range cases {
		if err := tr.Validate(2, 2); err == nil {
			t.Errorf("case %d: invalid transfer %v accepted", i, tr)
		}
	}
}

func TestAlgorithmValidateDuplicates(t *testing.T) {
	a := &Algorithm{
		Name: "dup", Op: OpAllGather, NRanks: 2, NChunks: 2,
		Transfers: []Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: CommRecv},
			{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: CommRecvReduceCopy},
		},
	}
	if err := a.Validate(); err == nil {
		t.Error("duplicate (src,dst,step,chunk) should be rejected")
	}
}

// TestValidateErrorOrder pins which error Validate reports when an
// algorithm has several defects: the first defective transfer in input
// order wins, whether it is malformed or repeats an earlier transfer's
// (src, dst, step, chunk) key.
func TestValidateErrorOrder(t *testing.T) {
	a01 := Transfer{Src: 0, Dst: 1, Step: 0, Chunk: 0}
	b12 := Transfer{Src: 1, Dst: 2, Step: 1, Chunk: 1}
	bad := Transfer{Src: 0, Dst: 7, Step: 2, Chunk: 0}
	rrc := a01
	rrc.Type = CommRecvReduceCopy
	cases := []struct {
		name string
		ts   []Transfer
		want string
	}{
		{"duplicate before out-of-range", []Transfer{a01, a01, bad},
			`ir: algorithm "v": duplicate transfer transfer(0, 1, 0, 0, recv)`},
		{"out-of-range before duplicate", []Transfer{a01, bad, a01},
			`ir: algorithm "v": ir: transfer transfer(0, 7, 2, 0, recv): dst rank out of range [0,3)`},
		{"earliest second occurrence wins", []Transfer{a01, b12, b12, a01},
			`ir: algorithm "v": duplicate transfer transfer(1, 2, 1, 1, recv)`},
		{"earliest second occurrence wins across keys", []Transfer{b12, a01, a01, b12},
			`ir: algorithm "v": duplicate transfer transfer(0, 1, 0, 0, recv)`},
		{"duplicate differing only in type", []Transfer{a01, b12, rrc},
			`ir: algorithm "v": duplicate transfer transfer(0, 1, 0, 0, rrc)`},
		{"later key sorts first", []Transfer{b12, {Src: 2, Dst: 0, Step: -1, Chunk: 0}, a01},
			`ir: algorithm "v": ir: transfer transfer(2, 0, -1, 0, recv): negative step`},
	}
	for _, c := range cases {
		a := &Algorithm{Name: "v", Op: OpAllReduce, NRanks: 3, NChunks: 2, Transfers: c.ts}
		err := a.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Validate = %v, want %s", c.name, err, c.want)
		}
	}
}

func TestAlgorithmValidateEmpty(t *testing.T) {
	a := &Algorithm{Name: "empty", Op: OpAllGather, NRanks: 2, NChunks: 2}
	if err := a.Validate(); err == nil {
		t.Error("empty algorithm should be rejected")
	}
	a = &Algorithm{Name: "tiny", Op: OpAllGather, NRanks: 1, NChunks: 1,
		Transfers: []Transfer{{Src: 0, Dst: 1}}}
	if err := a.Validate(); err == nil {
		t.Error("single-rank algorithm should be rejected")
	}
}

func TestSortedDeterministic(t *testing.T) {
	a := &Algorithm{
		Name: "s", Op: OpAllGather, NRanks: 4, NChunks: 4,
		Transfers: []Transfer{
			{Src: 2, Dst: 3, Step: 1, Chunk: 1},
			{Src: 0, Dst: 1, Step: 0, Chunk: 0},
			{Src: 1, Dst: 2, Step: 0, Chunk: 1},
			{Src: 0, Dst: 2, Step: 0, Chunk: 1},
		},
	}
	s := a.Sorted()
	for i := 1; i < len(s); i++ {
		a, b := s[i-1], s[i]
		if a.Step > b.Step || (a.Step == b.Step && a.Chunk > b.Chunk) {
			t.Fatalf("not sorted at %d: %v then %v", i, a, b)
		}
	}
	if len(a.Transfers) != 4 {
		t.Fatal("Sorted must not mutate the receiver")
	}
}

func TestStageOf(t *testing.T) {
	a := &Algorithm{StageBounds: []Step{0, 5, 9}}
	cases := map[Step]int{0: 0, 4: 0, 5: 1, 8: 1, 9: 2, 100: 2}
	for step, want := range cases {
		if got := a.StageOf(step); got != want {
			t.Errorf("StageOf(%d) = %d, want %d", step, got, want)
		}
	}
	if a.NStages() != 3 {
		t.Errorf("NStages = %d, want 3", a.NStages())
	}
	b := &Algorithm{}
	if b.NStages() != 1 || b.StageOf(7) != 0 {
		t.Error("unstaged algorithm must report a single stage")
	}
}

func TestPrimitives(t *testing.T) {
	task := Task{ID: 7, Transfer: Transfer{Src: 1, Dst: 2, Step: 3, Chunk: 4, Type: CommRecvReduceCopy}}
	send, recv := task.Primitives()
	if rank, peer := task.Ends(send.Kind); send.Task != 7 || send.Kind != PrimSend || rank != 1 || peer != 2 {
		t.Errorf("bad send primitive %+v on %d→%d", send, rank, peer)
	}
	if rank, peer := task.Ends(recv.Kind); recv.Task != 7 || recv.Kind != PrimRecvReduceCopy || rank != 2 || peer != 1 {
		t.Errorf("bad recv primitive %+v on %d→%d", recv, rank, peer)
	}
	plain := Task{ID: 8, Transfer: Transfer{Src: 0, Dst: 1, Type: CommRecv}}
	_, r2 := plain.Primitives()
	if r2.Kind != PrimRecv {
		t.Errorf("recv kind %v, want PrimRecv", r2.Kind)
	}
}

// Property: MaxStep is the max of all steps.
func TestPropertyMaxStep(t *testing.T) {
	f := func(steps []uint8) bool {
		if len(steps) == 0 {
			return true
		}
		a := &Algorithm{Name: "p", Op: OpAllReduce, NRanks: 2, NChunks: 2}
		want := Step(-1)
		for i, s := range steps {
			if i >= 64 {
				break
			}
			st := Step(s)
			a.Transfers = append(a.Transfers, Transfer{Src: 0, Dst: 1, Step: st, Chunk: ChunkID(i % 2)})
			if st > want {
				want = st
			}
		}
		return a.MaxStep() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
