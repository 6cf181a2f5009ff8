// Package collective is the correctness gate every compiled plan passes
// (Check, which proves the operator postcondition through the symbolic
// verifier in internal/verify) and the concrete data plane the runtime
// executes on: chunk-indexed rank buffers holding distinct per-origin
// values.
package collective

import (
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/verify"
)

// poison fills chunk slots that hold no valid data yet. A poisoned
// value that spreads into a delivered chunk no longer matches the sum
// of its contributions, so the runtime's result check catches it.
const poison int64 = -0x3fffffffffffffff

// ElemsPerChunk is the number of verification elements carried per
// chunk. Small, because correctness is element-position independent.
const ElemsPerChunk = 4

// Contribution returns rank r's deterministic initial value for chunk c,
// element e. Values are pairwise distinct across (r, c, e) so mixups are
// detected.
func Contribution(r ir.Rank, c ir.ChunkID, e int) int64 {
	return 1 + int64(r)*1_000_003 + int64(c)*10_007 + int64(e)*101
}

// State is the data plane: every rank's buffer as chunk-indexed element
// vectors.
type State struct {
	Op      ir.OpType
	NRanks  int
	NChunks int
	// data[rank][chunk][elem]
	data [][][]int64
}

// NewState initialises buffers per the operator's precondition (see
// dag.InitiallyHolds).
func NewState(op ir.OpType, nRanks, nChunks int) *State {
	s := &State{Op: op, NRanks: nRanks, NChunks: nChunks}
	s.data = make([][][]int64, nRanks)
	for r := 0; r < nRanks; r++ {
		s.data[r] = make([][]int64, nChunks)
		for c := 0; c < nChunks; c++ {
			s.data[r][c] = make([]int64, ElemsPerChunk)
			for e := 0; e < ElemsPerChunk; e++ {
				if dag.InitiallyHolds(op, ir.Rank(r), ir.ChunkID(c), nRanks, nChunks) {
					s.data[r][c][e] = Contribution(ir.Rank(r), ir.ChunkID(c), e)
				} else {
					s.data[r][c][e] = poison
				}
			}
		}
	}
	return s
}

// Chunk returns rank r's current copy of chunk c (aliased, not copied).
func (s *State) Chunk(r ir.Rank, c ir.ChunkID) []int64 { return s.data[r][c] }

// Check proves an algorithm correct against its operator
// postcondition — the standard correctness gate used by tests and the
// compiler. It validates the algorithm's structure, then replays its
// transfers in step order through the symbolic verifier, which tracks
// the set of origin contributions every buffer location holds: reading
// undelivered data, reducing a contribution twice, and ending with a
// missing or extra contribution all fail, at any communicator size.
// Group-embedded algorithms are judged against the group's view
// (verify.ExpectFor).
func Check(algo *ir.Algorithm) error {
	order, err := algo.Canonical()
	if err != nil {
		return err
	}
	return CheckCanonical(algo, order)
}

// CheckCanonical is Check for a caller that already holds algo's
// validated transfer order, order = algo.Canonical(): the compile
// pipeline validates and orders an algorithm once for both this gate
// and dependency analysis (dag.BuildCanonical).
func CheckCanonical(algo *ir.Algorithm, order []int32) error {
	e, err := verify.ExpectFor(algo)
	if err != nil {
		return err
	}
	_, err = verify.CheckOrder(algo.Op, algo.NRanks, algo.NChunks, algo.Initial, algo.Transfers, order, e)
	return err
}
