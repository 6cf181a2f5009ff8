// Package search is the sketch-guided candidate search over the synth
// package's genome family: it enumerates sketch corners, mutates
// routing knobs under a seeded RNG, and scores candidates with the
// compile pipeline and the flow simulator, gating every genome through
// the full correctness gauntlet. It lives below synth so the expert
// registry can depend on the genome builders without pulling the
// compile pipeline into a cycle.
package search

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
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
	// Workers is how many goroutines gate and simulate each round's new
	// genomes (exec.Cells); fewer than 2 runs them serially. The result
	// does not depend on it.
	Workers int
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

// Search runs the sketch-guided synthesis at each anchor buffer size
// and returns one beam per anchor, in anchor order, each equal to what
// a search at that anchor alone returns. At an anchor it enumerates
// every sketch of the family for (op, topology), scores each by
// compiling it through the core pipeline and simulating the anchor's
// size at the requested tier, then runs a seeded local search that
// mutates the surviving genomes' routing knobs; each anchor has its own
// RNG, seeded with opts.Seed, and its own set of genomes seen. Every
// returned candidate has passed the full correctness gauntlet (Gate):
// the symbolic postcondition check core.Compile runs, at any scale, and
// the static analyzer. A genome's verdict does not depend on the size,
// so each is built and gated once per call. Each round's new gates,
// then its simulations, run on opts.Workers goroutines, and the beams
// are updated serially afterwards, so the result does not depend on the
// pool's width. A trial whose cert.LowerBound proves it cannot enter
// its anchor's beam is never simulated, which leaves every beam as it
// would be had it been. ctx cancels the search between gates and
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

	s := &searcher{ctx: ctx, tp: tp, opts: opts, gates: map[string]*gated{}}
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
	// gates holds every genome gated so far, by name.
	gates map[string]*gated
}

// anchor is one buffer size's beam search.
type anchor struct {
	bytes int64
	seen  map[string]bool
	beam  []Candidate
	rng   *rand.Rand
}

// gated is one genome's pass through the gauntlet: its plan and
// compiled kernel, which stays nil if it failed.
type gated struct {
	genome synth.Genome
	algo   *ir.Algorithm
	kernel *kernel.Kernel
}

// trial is one (anchor, genome) simulation.
type trial struct {
	anchor int
	gate   *gated
	// bound is cert.LowerBound of the genome's plan at the anchor's size.
	bound      float64
	completion float64
	scored     bool
}

// round scores the genomes propose returns for each anchor, in order,
// that the anchor has not seen: it gates the genomes no earlier round
// gated, simulates those that passed at their anchors' sizes unless
// their bounds rule them out of the beam (simulate), then appends the
// scored candidates to each beam and cuts it back to opts.Beam. A
// genome that fails its gate or simulation, or is ruled out, is seen
// but never scored.
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
	if err := exec.Cells(s.ctx, s.opts.Workers, len(fresh), func(i int) error {
		gt := fresh[i]
		algo, err := gt.genome.Build()
		if err != nil {
			return nil
		}
		if compiled, err := Gate(s.ctx, algo, s.tp, s.opts.Protocol); err == nil {
			gt.algo, gt.kernel = algo, compiled.Kernel
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
	if err := s.simulate(trials); err != nil {
		return err
	}
	for _, tr := range trials {
		if tr.scored {
			an := &s.anchors[tr.anchor]
			an.beam = append(an.beam, Candidate{Genome: tr.gate.genome, Algo: tr.gate.algo, Completion: tr.completion})
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

// simulate scores the trials whose genomes passed their gates, in two
// waves. Wave 1 simulates each anchor's opts.Beam lowest-bound trials.
// Wave 2 simulates the rest, except a trial whose bound is above the
// opts.Beam-th best completion among the anchor's beam and wave 1: it
// would complete strictly later than opts.Beam candidates already
// scored, so it could not enter the beam. A simulated completion below
// its bound is an error.
func (s *searcher) simulate(trials []trial) error {
	var live []int
	for i := range trials {
		tr := &trials[i]
		if tr.gate.kernel != nil {
			tr.bound, _, _ = cert.LowerBound(tr.gate.kernel, s.tp, s.anchors[tr.anchor].bytes, s.opts.ChunkBytes)
			live = append(live, i)
		}
	}
	// A stable sort keeps equal bounds in trial order.
	slices.SortStableFunc(live, func(a, b int) int { return cmp.Compare(trials[a].bound, trials[b].bound) })
	picked := make([]int, len(s.anchors))
	first := make([]bool, len(trials))
	var wave1, wave2 []int
	for _, i := range live {
		if a := trials[i].anchor; picked[a] < s.opts.Beam {
			picked[a]++
			first[i] = true
			wave1 = append(wave1, i)
		}
	}
	if err := s.run(trials, wave1); err != nil {
		return err
	}
	cut := make([]float64, len(s.anchors))
	for a := range s.anchors {
		scores := make([]float64, 0, len(s.anchors[a].beam)+s.opts.Beam)
		for _, c := range s.anchors[a].beam {
			scores = append(scores, c.Completion)
		}
		for _, i := range wave1 {
			if tr := trials[i]; tr.anchor == a && tr.scored {
				scores = append(scores, tr.completion)
			}
		}
		cut[a] = math.Inf(1)
		if len(scores) >= s.opts.Beam {
			slices.Sort(scores)
			cut[a] = scores[s.opts.Beam-1]
		}
	}
	for _, i := range live {
		tr := trials[i]
		if !first[i] && !cert.BelowBound(cut[tr.anchor], tr.bound) {
			wave2 = append(wave2, i)
		}
	}
	return s.run(trials, wave2)
}

// run simulates trials[idx...] at their anchors' sizes on the pool.
func (s *searcher) run(trials []trial, idx []int) error {
	return exec.Cells(s.ctx, s.opts.Workers, len(idx), func(j int) error {
		tr := &trials[idx[j]]
		bytes := s.anchors[tr.anchor].bytes
		res, err := sim.Run(sim.Config{
			Topo:        s.tp,
			Kernel:      tr.gate.kernel,
			BufferBytes: bytes,
			ChunkBytes:  s.opts.ChunkBytes,
		})
		if err != nil {
			return nil
		}
		if cert.BelowBound(res.Completion, tr.bound) {
			return fmt.Errorf("synth: unsound lower bound for %s at %d: simulated %g s is below the bound %g s",
				tr.gate.algo.Name, bytes, res.Completion, tr.bound)
		}
		tr.completion, tr.scored = res.Completion, true
		return nil
	})
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
// table without passing it. ctx cancels the compile.
func Gate(ctx context.Context, algo *ir.Algorithm, tp *topo.Topology, proto ir.Protocol) (*core.Compiled, error) {
	compiled, err := core.Compile(ctx, algo, tp, core.Options{Protocol: proto})
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
