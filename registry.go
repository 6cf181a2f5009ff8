package resccl

import (
	"errors"
	"fmt"

	"github.com/resccl/resccl/internal/expert"
)

// AlgorithmInfo describes one entry of the algorithm registry.
type AlgorithmInfo struct {
	// Name is the registry key ("ring-allreduce", "hm-allgather", …).
	// Synthesized-plan emulations carry a "synth:" prefix.
	Name string
	// Op is the collective operator the algorithm implements.
	Op Op
	// NParams is the number of integer parameters BuildAlgorithm
	// expects: 1 for flat algorithms (nRanks), 2 for hierarchical ones
	// (nNodes, gpusPerNode).
	NParams int
}

// AlgorithmNames returns the names of every registered algorithm
// builder, sorted — expert-designed algorithms plus the promoted
// synthesized plans ("synth:" prefix). Each can be instantiated with
// BuildAlgorithm.
func AlgorithmNames() []string { return expert.Names() }

// AlgorithmRegistry returns the full registry, sorted by name.
func AlgorithmRegistry() []AlgorithmInfo {
	builders := expert.Registry()
	out := make([]AlgorithmInfo, len(builders))
	for i, b := range builders {
		out[i] = AlgorithmInfo{Name: b.Name, Op: b.Op, NParams: b.NParams}
	}
	return out
}

// BuildAlgorithm constructs a registered algorithm by name. Flat
// algorithms take one parameter (nRanks); hierarchical ones take two
// (nNodes, gpusPerNode). Synthesized sketch plans ("synth:sketch/…",
// the names dispatch tables record) encode their shape in the name and
// take no parameters. Unknown names return ErrUnknownAlgorithm.
func BuildAlgorithm(name string, params ...int) (*Algorithm, error) {
	algo, err := expert.Build(name, params...)
	if errors.Is(err, expert.ErrUnknown) {
		return nil, fmt.Errorf("%w: %v", ErrUnknownAlgorithm, err)
	}
	return algo, err
}
