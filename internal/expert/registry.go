package expert

import (
	"errors"
	"fmt"
	"sort"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/synth"
)

// Builder describes one expert algorithm constructor in the registry.
type Builder struct {
	// Name is the registry key ("ring-allreduce", "hm-allgather", …).
	Name string
	// Op is the collective operator the builder implements.
	Op ir.OpType
	// NParams is the number of integer parameters Build expects: 1 for
	// flat algorithms (nRanks), 2 for hierarchical ones (nNodes,
	// gpusPerNode).
	NParams int
	// Build constructs the algorithm.
	Build func(params ...int) (*ir.Algorithm, error)
}

func one(f func(int) (*ir.Algorithm, error)) func(...int) (*ir.Algorithm, error) {
	return func(p ...int) (*ir.Algorithm, error) { return f(p[0]) }
}

func two(f func(int, int) (*ir.Algorithm, error)) func(...int) (*ir.Algorithm, error) {
	return func(p ...int) (*ir.Algorithm, error) { return f(p[0], p[1]) }
}

var registry = map[string]Builder{}

func register(name string, op ir.OpType, nParams int, build func(...int) (*ir.Algorithm, error)) {
	registry[name] = Builder{Name: name, Op: op, NParams: nParams, Build: build}
}

func init() {
	register("ring-allgather", ir.OpAllGather, 1, one(RingAllGather))
	register("ring-allreduce", ir.OpAllReduce, 1, one(RingAllReduce))
	register("ring-reducescatter", ir.OpReduceScatter, 1, one(RingReduceScatter))
	register("tree-allreduce", ir.OpAllReduce, 1, one(TreeAllReduce))
	register("bruck-allgather", ir.OpAllGather, 1, one(BruckAllGather))
	register("rhd-allreduce", ir.OpAllReduce, 1, one(RHDAllReduce))
	register("mesh-allgather", ir.OpAllGather, 1, one(MeshAllGather))
	register("mesh-allreduce", ir.OpAllReduce, 1, one(MeshAllReduce))
	register("binomial-broadcast", ir.OpBroadcast, 1, one(BinomialBroadcast))
	register("direct-alltoall", ir.OpAllToAll, 1, one(DirectAllToAll))
	register("hm-allgather", ir.OpAllGather, 2, two(HMAllGather))
	register("hm-allreduce", ir.OpAllReduce, 2, two(HMAllReduce))
	register("hm-reducescatter", ir.OpReduceScatter, 2, two(HMReduceScatter))
	register("hierarchical-broadcast", ir.OpBroadcast, 2, two(HierarchicalBroadcast))
	register("hierarchical-alltoall", ir.OpAllToAll, 2, two(HierarchicalAllToAll))
	// Scale-out composition (synth): gpn chunks, one per rail, so plan
	// size grows linearly with rank count instead of quadratically.
	register("hier-allreduce", ir.OpAllReduce, 2, two(synth.HierAllReduce))
	// Synthesized-plan emulations: TACCL's from the synth package,
	// TECCL's re-stepped expert builders (teccl.go). The "synth:"
	// prefix marks non-expert origin. Sketch-search output
	// ("synth:sketch/...") is named, not registered: Build and BuildOn
	// rebuild those plans from their encoded genome.
	register("synth:taccl-allgather", ir.OpAllGather, 2, two(synth.TACCLAllGather))
	register("synth:taccl-allreduce", ir.OpAllReduce, 2, two(synth.TACCLAllReduce))
	register("synth:teccl-allgather", ir.OpAllGather, 2, two(tecclAllGather))
	register("synth:teccl-allreduce", ir.OpAllReduce, 2, two(tecclAllReduce))
}

// Names returns every registered builder name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the builder registered under name.
func Lookup(name string) (Builder, bool) {
	b, ok := registry[name]
	return b, ok
}

// Build, BuildOn and Check are the one place that turns a name into an
// algorithm: a registered builder's name, or a sketch plan name
// ("synth:sketch/…", the names dispatch tables record).
var (
	// ErrUnknown reports a name that is neither a registered builder
	// nor a well-formed sketch plan name.
	ErrUnknown = errors.New("expert: unknown algorithm")
	// ErrShape reports a sketch plan name whose encoded shape differs
	// from the shape it is asked to build on.
	ErrShape = errors.New("expert: sketch plan shape mismatch")
)

// Build constructs the named algorithm. Flat algorithms take one
// parameter (nRanks); hierarchical ones take two (nNodes, gpusPerNode);
// a sketch plan encodes its shape and takes none.
func Build(name string, params ...int) (*ir.Algorithm, error) {
	if synth.IsSketchName(name) {
		g, err := parseSketch(name)
		if err != nil {
			return nil, err
		}
		if len(params) != 0 {
			return nil, fmt.Errorf("expert: sketch plan %q encodes its shape and takes no parameters, got %d", name, len(params))
		}
		return g.Build()
	}
	b, err := lookup(name)
	if err != nil {
		return nil, err
	}
	if len(params) != b.NParams {
		return nil, fmt.Errorf("expert: algorithm %q takes %d parameter(s), got %d", name, b.NParams, len(params))
	}
	return b.Build(params...)
}

// BuildOn constructs the named algorithm on nNodes servers of gpn GPUs
// each: a hierarchical builder takes the shape, a flat one its rank
// count. A name Check refuses is refused before anything is built.
func BuildOn(name string, nNodes, gpn int) (*ir.Algorithm, error) {
	if err := Check(name, nNodes, gpn); err != nil {
		return nil, err
	}
	if synth.IsSketchName(name) {
		return synth.BuildNamed(name)
	}
	b := registry[name]
	if b.NParams == 2 {
		return b.Build(nNodes, gpn)
	}
	return b.Build(nNodes * gpn)
}

// Check reports, without building anything, whether BuildOn knows name
// on nNodes servers of gpn GPUs: ErrUnknown for a name it cannot
// resolve, ErrShape for a sketch plan of another shape. A builder may
// still refuse the shape when it runs.
func Check(name string, nNodes, gpn int) error {
	if !synth.IsSketchName(name) {
		_, err := lookup(name)
		return err
	}
	g, err := parseSketch(name)
	if err == nil && (g.NNodes != nNodes || g.GPN != gpn) {
		err = fmt.Errorf("%w: %q is a %d×%d plan, the shape is %d×%d", ErrShape, name, g.NNodes, g.GPN, nNodes, gpn)
	}
	return err
}

func lookup(name string) (Builder, error) {
	b, ok := registry[name]
	if !ok {
		return b, fmt.Errorf("%w %q (known: %v)", ErrUnknown, name, Names())
	}
	return b, nil
}

func parseSketch(name string) (synth.Genome, error) {
	g, err := synth.ParseGenome(name)
	if err != nil {
		err = fmt.Errorf("%w: %v", ErrUnknown, err)
	}
	return g, err
}

// Default names the standard algorithm for op on nNodes servers of gpn
// GPUs each: the hierarchical algorithms across multi-GPU servers, the
// NVSwitch full mesh or a ring inside one server, and a ring across
// single-GPU servers. It reports false for an operator with no
// default.
func Default(op ir.OpType, nNodes, gpn int) (string, bool) {
	multi := nNodes > 1 && gpn > 1
	switch op {
	case ir.OpAllGather:
		if multi {
			return "hm-allgather", true
		}
		if nNodes == 1 {
			return "mesh-allgather", true
		}
		return "ring-allgather", true
	case ir.OpAllReduce:
		if multi {
			return "hm-allreduce", true
		}
		if nNodes == 1 {
			return "mesh-allreduce", true
		}
		return "ring-allreduce", true
	case ir.OpReduceScatter:
		if multi {
			return "hm-reducescatter", true
		}
		return "ring-reducescatter", true
	case ir.OpBroadcast:
		if multi {
			return "hierarchical-broadcast", true
		}
		return "binomial-broadcast", true
	case ir.OpAllToAll:
		// Direct pairwise exchange: at chunked payload sizes the relay
		// aggregation of HierarchicalAllToAll concentrates NIC load
		// without coalescing messages; it remains registered for
		// footprint-constrained deployments.
		return "direct-alltoall", true
	default:
		return "", false
	}
}

// Registry returns every registered builder, sorted by name.
func Registry() []Builder {
	out := make([]Builder, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}
