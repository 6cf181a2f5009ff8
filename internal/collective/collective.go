// Package collective is the correctness gate every compiled plan
// passes: Check proves the operator postcondition through the symbolic
// verifier in internal/verify.
package collective

import (
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/verify"
)

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
