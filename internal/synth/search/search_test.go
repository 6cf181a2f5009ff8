package search

import (
	"math/rand"
	"testing"

	"github.com/resccl/resccl/internal/ir"
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
					if _, err := Gate(algo, tp, tier); err != nil {
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
					if _, err := Gate(algo, tp, ir.ProtoAuto); err != nil {
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

func TestSearchDeterministicAndSorted(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	opts := SearchOptions{Seed: 11, Beam: 3, Rounds: 2}
	a, err := Search(tp, ir.OpAllReduce, 4<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(tp, ir.OpAllReduce, 4<<20, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) > 3 {
		t.Fatalf("beam size %d out of range", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("rerun returned %d candidates, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Algo.Name != b[i].Algo.Name || a[i].Completion != b[i].Completion {
			t.Fatalf("rerun diverged at %d: %s/%g vs %s/%g",
				i, a[i].Algo.Name, a[i].Completion, b[i].Algo.Name, b[i].Completion)
		}
		if i > 0 && a[i].Completion < a[i-1].Completion {
			t.Fatalf("beam not sorted: %g after %g", a[i].Completion, a[i-1].Completion)
		}
	}
}

func TestSearchCoversOpsAndTiers(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	for _, op := range sketchOps {
		for _, tier := range []ir.Protocol{ir.ProtoLL, ir.ProtoSimple} {
			cands, err := Search(tp, op, 1<<20, SearchOptions{Seed: 3, Beam: 2, Rounds: 1, Protocol: tier})
			if err != nil {
				t.Fatalf("%v/%v: %v", op, tier, err)
			}
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
	tp := topo.New(2, 2, topo.A100())
	if _, err := Search(nil, ir.OpAllReduce, 1<<20, SearchOptions{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := Search(tp, ir.OpAllReduce, 0, SearchOptions{}); err == nil {
		t.Fatal("zero buffer accepted")
	}
	if _, err := Search(tp, ir.OpBroadcast, 1<<20, SearchOptions{}); err == nil {
		t.Fatal("uncovered op accepted")
	}
}
