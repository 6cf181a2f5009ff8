package cert_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/plangen"
	"github.com/resccl/resccl/internal/synth/search"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/tune"
)

// TestGapNonNegative is the certifier's core soundness property: the
// α–β lower bound never exceeds the simulated completion. The tune
// sweep and the sketch search skip every simulation this bound rules
// out, so it must hold wherever they use it: every registered algorithm
// × shape (including a non-power-of-two), the search's seed genomes and
// the genomes its mutation rounds reach on 2×8, and a seeded corpus of
// random plangen trees, under each tier at every size of the sweep's
// grid that the tier covers. -short keeps 4 MiB and 1 GiB, one mutation
// round and a quarter of the random corpus.
func TestGapNonNegative(t *testing.T) {
	sizes := tune.DefaultSizes()
	rounds, nRandom := 2, 48
	if testing.Short() {
		sizes = []int64{4 << 20, 1 << 30}
		rounds, nRandom = 1, 12
	}
	protos := []ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple}
	check := func(t *testing.T, algo *ir.Algorithm, tp *topo.Topology) {
		for _, proto := range protos {
			t.Run(proto.String(), func(t *testing.T) {
				c, err := core.Compile(context.Background(), algo, tp, core.Options{Protocol: proto})
				if err != nil {
					t.Fatalf("compile %q: %v", algo.Name, err)
				}
				for _, size := range sizes {
					if !tune.TierCovers(proto, size) {
						continue
					}
					t.Run(sizeLabel(size), func(t *testing.T) {
						crt, err := cert.Certify(c.Kernel, tp, cert.Options{BufferBytes: size})
						if err != nil {
							t.Fatalf("certify: %v", err)
						}
						if got := crt.ComputeHash(); got != crt.Hash {
							t.Fatalf("certificate hash %s, content hashes to %s", crt.Hash, got)
						}
						if crt.GapPct < 0 {
							t.Fatalf("negative gap %.2f%%: completion %.3fµs below lower bound %.3fµs — bound is not a bound",
								crt.GapPct, crt.CompletionUS, crt.LowerBoundUS)
						}
						if crt.LowerBoundUS <= 0 {
							t.Fatalf("degenerate lower bound %.3fµs", crt.LowerBoundUS)
						}
					})
				}
			})
		}
	}

	shapes := []struct{ nodes, gpus int }{{1, 8}, {2, 8}, {3, 5}}
	for _, b := range expert.Registry() {
		for _, sh := range shapes {
			params := []int{sh.nodes * sh.gpus}
			if b.NParams == 2 {
				params = []int{sh.nodes, sh.gpus}
			}
			algo, err := b.Build(params...)
			if err != nil {
				continue // the builder rejects the shape
			}
			tp := topo.New(sh.nodes, sh.gpus, topo.A100())
			t.Run(fmt.Sprintf("%s/%dx%d", b.Name, sh.nodes, sh.gpus), func(t *testing.T) { check(t, algo, tp) })
		}
	}

	// The seed sketches are every genome the search starts from; a beam
	// wider than the family and no mutation round returns each one that
	// passes the gates. With mutation rounds, the beam also holds the
	// best genomes the rounds built.
	tp := topo.New(2, 8, topo.A100())
	for _, op := range []ir.OpType{ir.OpAllReduce, ir.OpAllGather, ir.OpReduceScatter} {
		seen := map[string]bool{}
		for _, r := range []int{-1, rounds} {
			beams, err := search.Search(context.Background(), tp, op, []int64{4 << 20}, search.SearchOptions{Beam: 64, Rounds: r})
			if err != nil {
				t.Fatalf("search %v with %d rounds: %v", op, r, err)
			}
			for _, c := range beams[0] {
				if !seen[c.Algo.Name] {
					seen[c.Algo.Name] = true
					t.Run(c.Algo.Name, func(t *testing.T) { check(t, c.Algo, tp) })
				}
			}
		}
	}

	// Random spanning-tree plans from a fixed seed, across the shapes.
	rng := rand.New(rand.NewSource(1))
	gens := []func(*rand.Rand, int) (*ir.Algorithm, error){plangen.RandomAllGather, plangen.RandomAllReduce}
	for i := range nRandom {
		sh := shapes[i%len(shapes)]
		algo, err := gens[i/len(shapes)%len(gens)](rng, sh.nodes*sh.gpus)
		if err != nil {
			t.Fatalf("plangen: %v", err)
		}
		tp := topo.New(sh.nodes, sh.gpus, topo.A100())
		t.Run(fmt.Sprintf("plangen-%d/%s/%dx%d", i, algo.Name, sh.nodes, sh.gpus), func(t *testing.T) { check(t, algo, tp) })
	}
}

// sizeLabel spells a power-of-two size in its largest whole binary
// unit.
func sizeLabel(n int64) string {
	for _, u := range []struct {
		shift int
		name  string
	}{{30, "GiB"}, {20, "MiB"}, {10, "KiB"}} {
		if n >= 1<<u.shift && n%(1<<u.shift) == 0 {
			return fmt.Sprintf("%d%s", n>>u.shift, u.name)
		}
	}
	return fmt.Sprintf("%dB", n)
}
