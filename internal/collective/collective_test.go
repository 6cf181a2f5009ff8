package collective

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/resccl/resccl/internal/ir"
)

func ringAG(n int) *ir.Algorithm {
	a := &ir.Algorithm{Name: "ring", Op: ir.OpAllGather, NRanks: n, NChunks: n}
	for r := 0; r < n; r++ {
		for s := 0; s < n-1; s++ {
			c := ((r-s)%n + n) % n
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: ir.Rank(r), Dst: ir.Rank((r + 1) % n), Step: ir.Step(s),
				Chunk: ir.ChunkID(c), Type: ir.CommRecv,
			})
		}
	}
	return a
}

func TestExecuteAndVerifyRing(t *testing.T) {
	if err := Check(ringAG(5)); err != nil {
		t.Fatal(err)
	}
}

// doubleCountAllReduce is a 4-rank, 1-chunk AllReduce that reduces
// {0,3} twice and never includes ranks 1 and 2. Every rank ends with
// 2·c(0)+2·c(3), which equals c(0)+c(1)+c(2)+c(3) for any contribution
// affine in the rank, so a checker that compares sums accepts it.
func doubleCountAllReduce() *ir.Algorithm {
	return &ir.Algorithm{
		Name: "double-count", Op: ir.OpAllReduce, NRanks: 4, NChunks: 1,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 3, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
			{Src: 3, Dst: 2, Step: 1, Chunk: 0, Type: ir.CommRecv},
			{Src: 2, Dst: 3, Step: 2, Chunk: 0, Type: ir.CommRecvReduceCopy},
			{Src: 3, Dst: 0, Step: 3, Chunk: 0, Type: ir.CommRecv},
			{Src: 3, Dst: 1, Step: 3, Chunk: 0, Type: ir.CommRecv},
			{Src: 3, Dst: 2, Step: 3, Chunk: 0, Type: ir.CommRecv},
		},
	}
}

func TestVerifyCatchesWrongResult(t *testing.T) {
	// An AllGather that stops one step early leaves chunks undelivered.
	truncated := ringAG(4)
	truncated.Transfers = truncated.Transfers[:len(truncated.Transfers)-4]
	for _, a := range []*ir.Algorithm{truncated, doubleCountAllReduce()} {
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := Check(a); err == nil {
			t.Errorf("%s should fail verification", a.Name)
		}
	}
}

func TestContributionsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			for e := 0; e < ElemsPerChunk; e++ {
				v := Contribution(ir.Rank(r), ir.ChunkID(c), e)
				if seen[v] {
					t.Fatalf("collision at (%d,%d,%d)", r, c, e)
				}
				seen[v] = true
			}
		}
	}
}

// Property: for random ring sizes, the ring AllGather always verifies,
// and corrupting one transfer's chunk makes verification fail.
func TestPropertyRingVerifies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		a := ringAG(n)
		if Check(a) != nil {
			return false
		}
		// Corrupt: retarget one transfer's chunk.
		i := rng.Intn(len(a.Transfers))
		a.Transfers[i].Chunk = ir.ChunkID((int(a.Transfers[i].Chunk) + 1) % n)
		// A still-correct plan is possible only if the corruption created
		// a duplicate delivering the same data; treat it as a failure to
		// keep the property strict.
		return Check(a) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastVerify(t *testing.T) {
	// Rank 0 broadcasts every chunk directly.
	n := 4
	a := &ir.Algorithm{Name: "bcast", Op: ir.OpBroadcast, NRanks: n, NChunks: n}
	for c := 0; c < n; c++ {
		for d := 1; d < n; d++ {
			a.Transfers = append(a.Transfers, ir.Transfer{
				Src: 0, Dst: ir.Rank(d), Step: ir.Step(c), Chunk: ir.ChunkID(c), Type: ir.CommRecv,
			})
		}
	}
	if err := Check(a); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsInvalidAlgorithm(t *testing.T) {
	bad := &ir.Algorithm{Name: "bad", Op: ir.OpAllGather, NRanks: 1, NChunks: 1}
	if err := Check(bad); err == nil {
		t.Error("invalid algorithm should fail Check")
	}
}

func TestVerifyUnknownOp(t *testing.T) {
	a := ringAG(2)
	a.Op = ir.OpType(99)
	if err := Check(a); err == nil {
		t.Error("unknown operator should fail Check")
	}
}

func TestVerifyGroup(t *testing.T) {
	// A 2-rank ring AllReduce embedded at ranks {1,3} of a 4-rank world.
	ring := &ir.Algorithm{
		Name: "r2", Op: ir.OpAllReduce, NRanks: 2, NChunks: 2,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 1, Type: ir.CommRecvReduceCopy},
			{Src: 1, Dst: 0, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
			{Src: 0, Dst: 1, Step: 1, Chunk: 0, Type: ir.CommRecv},
			{Src: 1, Dst: 0, Step: 1, Chunk: 1, Type: ir.CommRecv},
		},
	}
	emb, err := ir.Embed(ring, []ir.Rank{1, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(emb); err != nil {
		t.Fatal(err)
	}
	// Grouped verification only supports AllReduce.
	ag, err := ir.Embed(ringAG(2), []ir.Rank{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(ag); err == nil {
		t.Error("grouped AllGather verification should be rejected")
	}
}

func TestVerifyGroupCatchesWrongSum(t *testing.T) {
	// Group {0,2} reduces chunk 0 onto rank 2 but never returns it:
	// rank 0 holds only its own contribution.
	half := &ir.Algorithm{
		Name: "half", Op: ir.OpAllReduce, NRanks: 2, NChunks: 1,
		Transfers: []ir.Transfer{{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy}},
	}
	emb, err := ir.Embed(half, []ir.Rank{0, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(emb); err == nil {
		t.Error("unreduced group state should fail verification")
	}
}
