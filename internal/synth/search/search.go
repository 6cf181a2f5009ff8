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
	"slices"
	"sort"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
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
	// Workers is how many goroutines gate and simulate each round's new
	// genomes (exec.Cells); fewer than 2 runs them serially. The result
	// does not depend on it.
	Workers int
	// Metrics, when non-nil, counts the search's simulations.
	Metrics *obs.Metrics
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
	return o
}

// Candidate is one verified, scored member of the sketch family.
type Candidate struct {
	// Genome is the point searched; Algo is its built plan (Name is
	// Genome.Encode(), so the plan can be rebuilt by name alone).
	Genome synth.Genome
	Algo   *ir.Algorithm
	// Completion is the simulated wall time (seconds) at the searched
	// buffer size.
	Completion float64
}

// Search runs the sketch-guided synthesis at each anchor buffer size
// and returns one beam per anchor, in anchor order, each equal to what
// a search at that anchor alone returns. At an anchor it enumerates
// every sketch of the family for (op, topology), scores each by
// compiling it through the core pipeline and simulating the anchor's
// size (exec.Simulate, at the auto tier's Simple cost), then runs a
// seeded local search that mutates the surviving genomes' routing
// knobs; each anchor has its own RNG, seeded with opts.Seed, and its
// own set of genomes seen. Every returned candidate has passed the full correctness gauntlet (Gate):
// the symbolic postcondition check core.Compile runs, at any scale, and
// the static analyzer. A genome's verdict does not depend on the size,
// so each is built and gated once per call. Each round's new gates,
// then its simulations, run on opts.Workers goroutines, and the beams
// are updated serially afterwards, so the result does not depend on the
// pool's width. A trial whose cert.LowerBound proves it cannot enter
// its anchor's beam is never simulated (exec.Prune), which leaves every
// beam as it would be had it been; a gated genome whose simulation
// fails fails the search. ctx cancels the search between gates and
// simulations; a nil ctx never cancels.
func Search(ctx context.Context, tp *topo.Topology, op ir.OpType, anchors []int64, opts SearchOptions) ([][]Candidate, error) {
	if tp == nil {
		return nil, fmt.Errorf("synth: search needs a topology")
	}
	if len(anchors) == 0 {
		return nil, fmt.Errorf("synth: search needs at least one anchor size")
	}
	for _, bytes := range anchors {
		if bytes <= 0 {
			return nil, fmt.Errorf("synth: search needs a positive buffer size, got %d", bytes)
		}
	}
	if !synth.SketchCovers(op) {
		return nil, fmt.Errorf("synth: search does not cover %v", op)
	}
	if tp.NRanks() < 2 {
		return nil, fmt.Errorf("synth: search needs ≥2 ranks, got %d", tp.NRanks())
	}
	opts = opts.withDefaults()

	s := &searcher{ctx: ctx, tp: tp, opts: opts, gates: map[string]*gated{}, byContent: map[[32]byte]*gated{}, done: map[exec.PlanID]float64{}}
	s.anchors = make([]anchor, len(anchors))
	for a, bytes := range anchors {
		s.anchors[a] = anchor{bytes: bytes, seen: map[string]bool{}, rng: rand.New(rand.NewSource(opts.Seed))}
	}
	seeds := seedSketches(op, tp.NNodes, tp.GPUsPerNode)
	if err := s.round(func(*anchor) []synth.Genome { return seeds }); err != nil {
		return nil, err
	}
	for _, an := range s.anchors {
		if len(an.beam) == 0 {
			return nil, fmt.Errorf("synth: no sketch survived the correctness gates for %v on %d×%d",
				op, tp.NNodes, tp.GPUsPerNode)
		}
	}
	for round := 0; round < opts.Rounds; round++ {
		err := s.round(func(an *anchor) (children []synth.Genome) {
			for _, p := range an.beam {
				for m := 0; m < 3; m++ {
					children = append(children, mutate(p.Genome, an.rng))
				}
			}
			return children
		})
		if err != nil {
			return nil, err
		}
	}
	beams := make([][]Candidate, len(s.anchors))
	for a, an := range s.anchors {
		beams[a] = an.beam
	}
	return beams, nil
}

// searcher is one Search call's state.
type searcher struct {
	ctx     context.Context
	tp      *topo.Topology
	opts    SearchOptions
	anchors []anchor
	// gates holds every genome gated so far, by name, and byContent the
	// first genome built to each algorithm content (backend.Content).
	gates     map[string]*gated
	byContent map[[32]byte]*gated
	// done holds the completion of every plan simulated so far, so a
	// later round never simulates a plan again under another name.
	done map[exec.PlanID]float64
}

// anchor is one buffer size's beam search.
type anchor struct {
	bytes int64
	seen  map[string]bool
	beam  []Candidate
	rng   *rand.Rand
}

// gated is one genome's pass through the gauntlet: its built and
// compiled plan, which stays nil if it failed. A genome whose algorithm
// has the content of one built before shares that genome's verdict and
// kernel under its own Algo.
type gated struct {
	genome  synth.Genome
	algo    *ir.Algorithm
	content [32]byte
	plan    *backend.Plan
}

// trial is one (anchor, genome) simulation.
type trial struct {
	anchor int
	gate   *gated
}

// round scores the genomes propose returns for each anchor, in order,
// that the anchor has not seen: it gates the genomes no earlier round
// gated, simulates those that passed at their anchors' sizes unless
// their bounds rule them out of the beam, then appends the scored
// candidates to each beam and cuts it back to opts.Beam. A genome that
// fails its gate, or is ruled out, is seen but never scored.
func (s *searcher) round(propose func(*anchor) []synth.Genome) error {
	var fresh []*gated
	var trials []trial
	for a := range s.anchors {
		an := &s.anchors[a]
		for _, g := range propose(an) {
			name := g.Encode()
			if an.seen[name] {
				continue
			}
			an.seen[name] = true
			gt, ok := s.gates[name]
			if !ok {
				gt = &gated{genome: g}
				s.gates[name] = gt
				fresh = append(fresh, gt)
			}
			trials = append(trials, trial{anchor: a, gate: gt})
		}
	}
	// Build the new genomes, then gate each distinct algorithm once.
	if err := exec.Cells(s.ctx, s.opts.Workers, len(fresh), func(i int) error {
		gt := fresh[i]
		if algo, err := gt.genome.Build(); err == nil {
			gt.algo, gt.content = algo, backend.Content(algo)
		}
		return nil
	}); err != nil {
		return err
	}
	var distinct []*gated
	for _, gt := range fresh {
		if gt.algo == nil {
			continue
		}
		if _, ok := s.byContent[gt.content]; !ok {
			s.byContent[gt.content] = gt
			distinct = append(distinct, gt)
		}
	}
	if err := exec.Cells(s.ctx, s.opts.Workers, len(distinct), func(i int) error {
		gt := distinct[i]
		if compiled, err := Gate(s.ctx, gt.algo, s.tp); err == nil {
			gt.plan = &backend.Plan{Algo: gt.algo, Kernel: compiled.Kernel}
		}
		return nil
	}); err != nil {
		return err
	}
	// A gate cancelled mid-compile reads as a failed genome; report the
	// cancellation instead.
	if s.ctx != nil && s.ctx.Err() != nil {
		return s.ctx.Err()
	}
	for _, gt := range fresh {
		if gt.algo == nil {
			continue
		}
		if first := s.byContent[gt.content]; first != gt && first.plan != nil {
			gt.plan = &backend.Plan{Algo: gt.algo, Kernel: first.plan.Kernel}
		}
	}

	// Simulate the gated trials that may enter their anchor's beam:
	// exec.Prune keeps each anchor's opts.Beam best, counting the beam's
	// completions as scores the anchor already holds.
	trials = slices.DeleteFunc(trials, func(tr trial) bool { return tr.gate.plan == nil })
	cells := make([]exec.Bounded, len(trials))
	for i, tr := range trials {
		bytes := s.anchors[tr.anchor].bytes
		bound, _, _ := cert.LowerBound(tr.gate.plan.Kernel, s.tp, bytes, simcost.DefaultChunkBytes)
		cells[i] = exec.Bounded{
			Group: tr.anchor,
			Bound: bound,
			Plan:  exec.PlanID{Algo: tr.gate.content, Protocol: ir.ProtoAuto, Bytes: bytes},
			Name:  fmt.Sprintf("%s at %d", tr.gate.plan.Algo.Name, bytes),
		}
	}
	prior := make([][]float64, len(s.anchors))
	for a, an := range s.anchors {
		for _, c := range an.beam {
			prior[a] = append(prior[a], c.Completion)
		}
	}
	req := exec.Request{Topo: s.tp, Metrics: s.opts.Metrics}
	scored, completions, err := exec.Prune(s.ctx, s.opts.Workers, s.opts.Beam, cells, prior, s.done, func(i int) (float64, error) {
		tr := &trials[i]
		call := []exec.Call{{Algo: tr.gate.plan.Algo, BufferBytes: s.anchors[tr.anchor].bytes}}
		out := []exec.Outcome{{Plan: tr.gate.plan}}
		if err := exec.Simulate(req, call, out); err != nil {
			return 0, fmt.Errorf("synth: simulate %s: %w", cells[i].Name, err)
		}
		return out[0].Result.Completion, nil
	})
	if err != nil {
		return err
	}
	for i, tr := range trials {
		if scored[i] {
			an := &s.anchors[tr.anchor]
			an.beam = append(an.beam, Candidate{Genome: tr.gate.genome, Algo: tr.gate.plan.Algo, Completion: completions[i]})
		}
	}
	for a := range s.anchors {
		an := &s.anchors[a]
		sortCandidates(an.beam)
		if len(an.beam) > s.opts.Beam {
			an.beam = an.beam[:s.opts.Beam]
		}
	}
	return nil
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

// Gate runs the full correctness gauntlet on a synthesized algorithm —
// core.Compile's postcondition check (collective.Check, one symbolic
// replay with no rank bound), the structure and pipeline checks the
// compile itself runs, and the static analyzer's gate subset over the
// compiled plan — and returns the compiled result. It is the
// registration gate: nothing enters a beam, a registry or a dispatch
// table without passing it. It compiles at the auto tier, the one the
// search scores at. ctx cancels the compile.
func Gate(ctx context.Context, algo *ir.Algorithm, tp *topo.Topology) (*core.Compiled, error) {
	compiled, err := core.Compile(ctx, algo, tp, core.Options{Protocol: ir.ProtoAuto})
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
