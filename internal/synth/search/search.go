// Package search is the sketch-guided candidate search over the synth
// package's genome family: it enumerates sketch corners, mutates
// routing knobs under a seeded RNG, and scores candidates with the
// compile pipeline and the flow simulator, gating every genome through
// the full correctness gauntlet. It lives below synth so the expert
// registry can depend on the genome builders without pulling the
// compile pipeline into a cycle.
package search

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// SearchOptions tune the sketch search. The zero value applies the
// defaults; the same options and seed always return the same
// candidates in the same order.
type SearchOptions struct {
	// Seed drives the mutation stream (default 1). The search never
	// touches the global rand source.
	Seed int64
	// Beam is how many candidates survive each round (default 4).
	Beam int
	// Rounds is how many mutation rounds run after the sketch
	// enumeration (default 2).
	Rounds int
	// Protocol is the transport tier candidates are scored under;
	// ProtoAuto scores at Simple-tier cost.
	Protocol ir.Protocol
	// ChunkBytes is the simulated transfer chunk size (default 1 MiB).
	ChunkBytes int64
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Beam <= 0 {
		o.Beam = 4
	}
	if o.Rounds < 0 {
		o.Rounds = 0
	} else if o.Rounds == 0 {
		o.Rounds = 2
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = simcost.DefaultChunkBytes
	}
	return o
}

// Candidate is one verified, scored member of the sketch family.
type Candidate struct {
	// Genome is the point searched; Algo is its built plan (Name is
	// Genome.Encode(), so the plan can be rebuilt by name alone).
	Genome synth.Genome
	Algo   *ir.Algorithm
	// Completion is the simulated wall time (seconds) at the searched
	// buffer size and protocol tier.
	Completion float64
}

// Search runs the sketch-guided synthesis: enumerate every sketch of
// the family for (op, topology), score each by compiling it through the
// core pipeline and simulating bufferBytes at the requested tier, then
// run a seeded local search that mutates the surviving genomes' routing
// knobs. Every returned candidate has passed the full correctness
// gauntlet (Gate): the symbolic postcondition check core.Compile runs,
// at any scale, and the static analyzer.
func Search(tp *topo.Topology, op ir.OpType, bufferBytes int64, opts SearchOptions) ([]Candidate, error) {
	if tp == nil {
		return nil, fmt.Errorf("synth: search needs a topology")
	}
	if bufferBytes <= 0 {
		return nil, fmt.Errorf("synth: search needs a positive buffer size, got %d", bufferBytes)
	}
	if !synth.SketchCovers(op) {
		return nil, fmt.Errorf("synth: search does not cover %v", op)
	}
	if tp.NRanks() < 2 {
		return nil, fmt.Errorf("synth: search needs ≥2 ranks, got %d", tp.NRanks())
	}
	opts = opts.withDefaults()

	seen := map[string]bool{}
	var beam []Candidate
	score := func(g synth.Genome) {
		name := g.Encode()
		if seen[name] {
			return
		}
		seen[name] = true
		if cand, err := evaluate(tp, g, bufferBytes, opts); err == nil {
			beam = append(beam, cand)
		}
	}

	for _, g := range seedSketches(op, tp.NNodes, tp.GPUsPerNode) {
		score(g)
	}
	if len(beam) == 0 {
		return nil, fmt.Errorf("synth: no sketch survived the correctness gates for %v on %d×%d",
			op, tp.NNodes, tp.GPUsPerNode)
	}
	sortCandidates(beam)
	if len(beam) > opts.Beam {
		beam = beam[:opts.Beam]
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	for round := 0; round < opts.Rounds; round++ {
		// Mutate a snapshot of the beam; score() appends survivors.
		parents := append([]Candidate(nil), beam...)
		for _, p := range parents {
			for m := 0; m < 3; m++ {
				score(mutate(p.Genome, rng))
			}
		}
		sortCandidates(beam)
		if len(beam) > opts.Beam {
			beam = beam[:opts.Beam]
		}
	}
	return beam, nil
}

// seedSketches enumerates the sketch corners of the family for a shape:
// every intra × inter × rail-assignment combination that is distinct on
// the shape, at rotation 0.
func seedSketches(op ir.OpType, nNodes, gpn int) []synth.Genome {
	intras := []synth.IntraKind{synth.IntraMesh, synth.IntraRing}
	if gpn == 1 {
		intras = intras[:1]
	}
	inters := []synth.InterKind{synth.InterDirect, synth.InterRing, synth.InterTree}
	if nNodes == 1 {
		inters = inters[:1]
	}
	spreads := []bool{false, true}
	if gpn == 1 || nNodes == 1 {
		spreads = spreads[:1]
	}
	var out []synth.Genome
	for _, in := range intras {
		for _, ex := range inters {
			for _, sp := range spreads {
				out = append(out, synth.Genome{
					Op: op, NNodes: nNodes, GPN: gpn,
					Intra: in, Inter: ex, Spread: sp,
				})
			}
		}
	}
	return out
}

// mutate perturbs one routing knob of a genome: rotate the rail
// assignment, flip the per-chunk rail spreading, or switch a routing
// family (the steps-vs-rounds move).
func mutate(g synth.Genome, rng *rand.Rand) synth.Genome {
	switch rng.Intn(4) {
	case 0:
		if g.GPN > 1 {
			g.Rotate = (g.Rotate + 1 + rng.Intn(g.GPN-1)) % g.GPN
		}
	case 1:
		if g.GPN > 1 && g.NNodes > 1 {
			g.Spread = !g.Spread
		}
	case 2:
		if g.GPN > 1 {
			if g.Intra == synth.IntraMesh {
				g.Intra = synth.IntraRing
			} else {
				g.Intra = synth.IntraMesh
			}
		}
	default:
		if g.NNodes > 1 {
			g.Inter = synth.InterKind((int(g.Inter) + 1 + rng.Intn(2)) % 3)
		}
	}
	return g
}

// evaluate builds, gates and scores one genome. Genomes that fail any
// correctness gate are reported as errors and never scored.
func evaluate(tp *topo.Topology, g synth.Genome, bufferBytes int64, opts SearchOptions) (Candidate, error) {
	algo, err := g.Build()
	if err != nil {
		return Candidate{}, err
	}
	compiled, err := Gate(algo, tp, opts.Protocol)
	if err != nil {
		return Candidate{}, err
	}
	res, err := sim.Run(sim.Config{
		Topo:        tp,
		Kernel:      compiled.Kernel,
		BufferBytes: bufferBytes,
		ChunkBytes:  opts.ChunkBytes,
	})
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{Genome: g, Algo: algo, Completion: res.Completion}, nil
}

// Gate runs the full correctness gauntlet on a synthesized algorithm —
// core.Compile's postcondition check (collective.Check, one symbolic
// replay with no rank bound), the structure and pipeline checks the
// compile itself runs, and the static analyzer's gate subset over the
// compiled plan — and returns the compiled result. It is the
// registration gate: nothing enters a beam, a registry or a dispatch
// table without passing it.
func Gate(algo *ir.Algorithm, tp *topo.Topology, proto ir.Protocol) (*core.Compiled, error) {
	compiled, err := core.Compile(context.Background(), algo, tp, core.Options{Protocol: proto})
	if err != nil {
		return nil, fmt.Errorf("synth: %s failed to compile: %w", algo.Name, err)
	}
	report, err := analyze.Plan(compiled.Kernel, analyze.Options{Checks: analyze.CheckGate})
	if err != nil {
		return nil, fmt.Errorf("synth: %s failed analysis: %w", algo.Name, err)
	}
	if err := report.Err(); err != nil {
		return nil, fmt.Errorf("synth: %s failed static analysis: %w", algo.Name, err)
	}
	return compiled, nil
}

// sortCandidates orders by completion, then name, so equal scores
// resolve deterministically.
func sortCandidates(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].Completion != cands[j].Completion {
			return cands[i].Completion < cands[j].Completion
		}
		return cands[i].Algo.Name < cands[j].Algo.Name
	})
}
