package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

var sketchOps = []ir.OpType{ir.OpAllGather, ir.OpAllReduce, ir.OpReduceScatter}

// sketchShapes covers single-node, single-GPU-per-node, dgx-like and
// non-power-of-two shapes.
var sketchShapes = []struct{ nodes, gpn int }{
	{1, 8}, {8, 1}, {2, 8}, {4, 4}, {3, 2}, {2, 3}, {3, 5},
}

func TestSketchNameRoundTrip(t *testing.T) {
	for _, op := range sketchOps {
		for _, sh := range sketchShapes {
			for _, g := range seedSketches(op, sh.nodes, sh.gpn) {
				g.Rotate = (sh.gpn - 1) / 2
				name := g.Encode()
				back, err := synth.ParseGenome(name)
				if err != nil {
					t.Fatalf("synth.ParseGenome(%q): %v", name, err)
				}
				if back != g {
					t.Fatalf("round trip %q: got %+v want %+v", name, back, g)
				}
			}
		}
	}
	if _, err := synth.ParseGenome("synth:sketch/zz/2x8/im-ed-s0-r0"); err == nil {
		t.Fatal("bad op code accepted")
	}
	if synth.IsSketchName("hm-allreduce") {
		t.Fatal("registry name misdetected as sketch")
	}
}

// TestSketchFamilyProvablyCorrect is the synthesizer's core property:
// every genome of the family — all sketch corners, every rotation, on
// every shape — must pass the full correctness gauntlet (data-plane
// check, symbolic verifier, static analyzer) under every protocol tier.
func TestSketchFamilyProvablyCorrect(t *testing.T) {
	tiers := []ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple}
	for _, op := range sketchOps {
		for _, sh := range sketchShapes {
			tp := topo.New(sh.nodes, sh.gpn, topo.A100())
			for _, g := range seedSketches(op, sh.nodes, sh.gpn) {
				for rot := 0; rot < sh.gpn; rot++ {
					g.Rotate = rot
					algo, err := g.Build()
					if err != nil {
						t.Fatalf("%s: build: %v", g.Encode(), err)
					}
					if algo.Name != g.Encode() {
						t.Fatalf("algorithm name %q != genome name %q", algo.Name, g.Encode())
					}
					tier := tiers[(rot+int(g.Intra)+int(g.Inter))%len(tiers)]
					if _, err := Gate(context.Background(), algo, tp, tier); err != nil {
						t.Fatalf("gate(%s, %v): %v", g.Encode(), tier, err)
					}
				}
			}
		}
	}
}

// TestSketchMutationsProvablyCorrect walks random mutation chains from
// every sketch corner and gates each visited genome — the states the
// beam search can actually reach.
func TestSketchMutationsProvablyCorrect(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range []struct{ nodes, gpn int }{{2, 8}, {3, 2}} {
			tp := topo.New(sh.nodes, sh.gpn, topo.A100())
			for _, op := range sketchOps {
				g := seedSketches(op, sh.nodes, sh.gpn)[0]
				for step := 0; step < 6; step++ {
					g = mutate(g, rng)
					algo, err := g.Build()
					if err != nil {
						t.Fatalf("seed %d %s: build: %v", seed, g.Encode(), err)
					}
					if _, err := Gate(context.Background(), algo, tp, ir.ProtoAuto); err != nil {
						t.Fatalf("seed %d gate(%s): %v", seed, g.Encode(), err)
					}
				}
			}
		}
	}
}

func TestBuildNamedMatchesBuild(t *testing.T) {
	g := synth.Genome{Op: ir.OpAllReduce, NNodes: 2, GPN: 8, Intra: synth.IntraMesh, Inter: synth.InterRing, Spread: true, Rotate: 3}
	want, err := g.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := synth.BuildNamed(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Transfers) != len(want.Transfers) {
		t.Fatalf("synth.BuildNamed: %d transfers, want %d", len(got.Transfers), len(want.Transfers))
	}
	for i := range got.Transfers {
		if got.Transfers[i] != want.Transfers[i] {
			t.Fatalf("transfer %d differs: %+v vs %+v", i, got.Transfers[i], want.Transfers[i])
		}
	}
}

// search1 runs Search at one anchor and returns its beam.
func search1(t *testing.T, tp *topo.Topology, op ir.OpType, bytes int64, opts SearchOptions) []Candidate {
	t.Helper()
	beams, err := Search(context.Background(), tp, op, []int64{bytes}, opts)
	if err != nil {
		t.Fatalf("%v on %v at %d: %v", op, tp, bytes, err)
	}
	if len(beams) != 1 {
		t.Fatalf("%d beams for one anchor", len(beams))
	}
	return beams[0]
}

func TestSearchDeterministicAndSorted(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	opts := SearchOptions{Seed: 11, Beam: 3, Rounds: 2}
	a := search1(t, tp, ir.OpAllReduce, 4<<20, opts)
	b := search1(t, tp, ir.OpAllReduce, 4<<20, opts)
	if len(a) == 0 || len(a) > 3 {
		t.Fatalf("beam size %d out of range", len(a))
	}
	if err := sameBeam(a, b); err != nil {
		t.Fatalf("rerun diverged: %v", err)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Completion < a[i-1].Completion {
			t.Fatalf("beam not sorted: %g after %g", a[i].Completion, a[i-1].Completion)
		}
	}
}

func TestSearchCoversOpsAndTiers(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	for _, op := range sketchOps {
		for _, tier := range []ir.Protocol{ir.ProtoLL, ir.ProtoSimple} {
			cands := search1(t, tp, op, 1<<20, SearchOptions{Seed: 3, Beam: 2, Rounds: 1, Protocol: tier})
			if len(cands) == 0 {
				t.Fatalf("%v/%v: empty beam", op, tier)
			}
			for _, c := range cands {
				if c.Algo.Op != op {
					t.Fatalf("%v/%v: candidate op %v", op, tier, c.Algo.Op)
				}
			}
		}
	}
}

func TestSearchRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	tp := topo.New(2, 2, topo.A100())
	for _, tc := range []struct {
		name    string
		tp      *topo.Topology
		op      ir.OpType
		anchors []int64
	}{
		{"nil topology", nil, ir.OpAllReduce, []int64{1 << 20}},
		{"no anchors", tp, ir.OpAllReduce, nil},
		{"zero buffer", tp, ir.OpAllReduce, []int64{1 << 20, 0}},
		{"uncovered op", tp, ir.OpBroadcast, []int64{1 << 20}},
		{"one rank", topo.New(1, 1, topo.A100()), ir.OpAllReduce, []int64{1 << 20}},
	} {
		if _, err := Search(ctx, tc.tp, tc.op, tc.anchors, SearchOptions{}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// oracleSearch is the search at one anchor, serial and with no state
// shared beyond it: it builds, gates and simulates every genome it
// scores. Search must return exactly its beam at every anchor.
func oracleSearch(tp *topo.Topology, op ir.OpType, bytes int64, opts SearchOptions) ([]Candidate, error) {
	opts = opts.withDefaults()
	seen := map[string]bool{}
	var beam []Candidate
	score := func(g synth.Genome) {
		name := g.Encode()
		if seen[name] {
			return
		}
		seen[name] = true
		algo, err := g.Build()
		if err != nil {
			return
		}
		compiled, err := Gate(context.Background(), algo, tp, opts.Protocol)
		if err != nil {
			return
		}
		res, err := sim.Run(sim.Config{Topo: tp, Kernel: compiled.Kernel, BufferBytes: bytes, ChunkBytes: opts.ChunkBytes})
		if err != nil {
			return
		}
		beam = append(beam, Candidate{Genome: g, Algo: algo, Completion: res.Completion})
	}
	cut := func() {
		sortCandidates(beam)
		if len(beam) > opts.Beam {
			beam = beam[:opts.Beam]
		}
	}
	for _, g := range seedSketches(op, tp.NNodes, tp.GPUsPerNode) {
		score(g)
	}
	if len(beam) == 0 {
		return nil, fmt.Errorf("no sketch survived for %v on %v", op, tp)
	}
	cut()
	rng := rand.New(rand.NewSource(opts.Seed))
	for round := 0; round < opts.Rounds; round++ {
		for _, p := range append([]Candidate(nil), beam...) {
			for m := 0; m < 3; m++ {
				score(mutate(p.Genome, rng))
			}
		}
		cut()
	}
	return beam, nil
}

// sameBeam reports the first difference between two beams.
func sameBeam(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Genome != want[i].Genome || got[i].Algo.Name != want[i].Algo.Name || got[i].Completion != want[i].Completion {
			return fmt.Errorf("candidate %d is %s/%g, want %s/%g",
				i, got[i].Algo.Name, got[i].Completion, want[i].Algo.Name, want[i].Completion)
		}
	}
	return nil
}

// tuneAnchors are the sweep's full-grid anchors: the latency-bound,
// crossover and bandwidth-bound regimes.
var tuneAnchors = []int64{64 << 10, 16 << 20, 1 << 30}

// TestSearchMatchesPerAnchorOracle: one multi-anchor search returns,
// at every anchor, exactly the beam an independent serial search at
// that anchor returns, whatever the pool's width.
func TestSearchMatchesPerAnchorOracle(t *testing.T) {
	shapes := []struct{ nodes, gpn int }{{1, 8}, {2, 4}, {2, 8}, {4, 4}, {3, 2}}
	settings := []SearchOptions{
		{Seed: 1, Beam: 4, Rounds: 2},
		{Seed: 11, Beam: 3, Rounds: 1, Protocol: ir.ProtoLL128},
	}
	anchors := tuneAnchors
	if testing.Short() {
		// The race run keeps the two smallest shapes and the quick
		// sweep's anchors.
		shapes = []struct{ nodes, gpn int }{{2, 4}, {3, 2}}
		anchors = []int64{256 << 10, 4 << 20, 64 << 20}
	}
	for _, sh := range shapes {
		tp := topo.New(sh.nodes, sh.gpn, topo.A100())
		for _, op := range sketchOps {
			for _, opts := range settings {
				name := fmt.Sprintf("%dx%d/%v/seed%d", sh.nodes, sh.gpn, op, opts.Seed)
				opts.Workers = runtime.GOMAXPROCS(0)
				beams, err := Search(context.Background(), tp, op, anchors, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for a, bytes := range anchors {
					want, err := oracleSearch(tp, op, bytes, opts)
					if err != nil {
						t.Fatalf("%s oracle at %d: %v", name, bytes, err)
					}
					if err := sameBeam(beams[a], want); err != nil {
						t.Errorf("%s at %d: %v", name, bytes, err)
					}
				}
			}
		}
	}
}

// TestSearchWorkersAgree: a serial search and searches on pools of
// several widths return identical beams.
func TestSearchWorkersAgree(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	opts := SearchOptions{Seed: 5, Beam: 3, Rounds: 2}
	serial, err := Search(context.Background(), tp, ir.OpAllGather, tuneAnchors, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{runtime.GOMAXPROCS(0), 3} {
		opts.Workers = workers
		par, err := Search(context.Background(), tp, ir.OpAllGather, tuneAnchors, opts)
		if err != nil {
			t.Fatal(err)
		}
		for a := range tuneAnchors {
			if err := sameBeam(par[a], serial[a]); err != nil {
				t.Errorf("%d workers at %d: %v", workers, tuneAnchors[a], err)
			}
		}
	}
}

// TestSearchCancelled: a search under a done context returns the
// context's error, not a beam of the genomes it reached, and leaves no
// goroutine behind.
func TestSearchCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	tp := topo.New(2, 8, topo.A100())
	opts := SearchOptions{Workers: 4}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(cancelled, tp, ir.OpAllReduce, tuneAnchors, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled search: got %v, want context.Canceled", err)
	}
	// A deadline that expires mid-search, during its gates or its
	// simulations.
	for _, d := range []time.Duration{time.Millisecond, 20 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		_, err := Search(ctx, tp, ir.OpAllReduce, tuneAnchors, opts)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v deadline: got %v, want context.DeadlineExceeded", d, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
