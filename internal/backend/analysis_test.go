package backend

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// serveCatalog compiles the plan service benchmark's (perfbench's
// serve-mixed) 144 plans: four algorithms on 1, 2 and 4 nodes of four
// GPUs, flat and rail, under every backend and the LL and Simple tiers.
func serveCatalog(t *testing.T) map[string]*Plan {
	t.Helper()
	plans := map[string]*Plan{}
	for _, algo := range []string{"ring-allreduce", "ring-allgather", "tree-allreduce", "bruck-allgather"} {
		for _, nodes := range []int{1, 2, 4} {
			for _, fabric := range []string{"flat", "rail"} {
				tp := topo.New(nodes, 4, topo.A100())
				if fabric == "rail" {
					tp = topo.NewRail(nodes, 4, topo.A100(), 2)
				}
				for _, b := range []Backend{NewResCCL(), NewNCCL(), NewMSCCL()} {
					for _, proto := range []ir.Protocol{ir.ProtoLL, ir.ProtoSimple} {
						a, err := expert.BuildOn(algo, nodes, 4)
						if err != nil {
							t.Fatal(err)
						}
						p, err := b.Compile(context.Background(), Request{Algo: a, Topo: tp, Protocol: proto})
						if err != nil {
							t.Fatalf("%s %dx4 %s %s %v: %v", algo, nodes, fabric, b.Name(), proto, err)
						}
						plans[fmt.Sprintf("%s %dx4 %s %s %v", algo, nodes, fabric, b.Name(), proto)] = p
					}
				}
			}
		}
	}
	return plans
}

// TestAnalysisReportBounded pins the bound CacheConfig.MaxBytes states
// for the full analysis the cache does not charge: over the serve-mixed
// catalog, every plan's report is at most 4 KiB.
func TestAnalysisReportBounded(t *testing.T) {
	const limit = 4 << 10
	plans := serveCatalog(t)
	if len(plans) != 144 {
		t.Fatalf("catalog has %d plans, want 144", len(plans))
	}
	var largest, worstShare string
	var most int64
	share := 0.0
	for name, p := range plans { //resccl:allow mapiter
		rep, err := p.Analysis()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := reportBytes(rep)
		if n > limit {
			t.Errorf("%s: full report holds %d bytes (%d diagnostics), want at most %d", name, n, len(rep.Diags), limit)
		}
		if n > most || n == most && name < largest {
			most, largest = n, name
		}
		if f := float64(n) / float64(planBytes(p)); f > share || f == share && name < worstShare {
			share, worstShare = f, name
		}
	}
	t.Logf("largest report: %d bytes (%s); largest share of planBytes: %.1f%% (%s)", most, largest, 100*share, worstShare)
}

// TestAnalysisComputedOnce checks that Plan.Analysis is the full
// analysis, computed once and shared by concurrent callers.
func TestAnalysisComputedOnce(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	a, err := expert.BuildOn("ring-allgather", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewMSCCL().Compile(context.Background(), Request{Algo: a, Topo: tp, Protocol: ir.ProtoLL})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := analyze.Plan(p.Kernel, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*analyze.Report, 8)
	var wg sync.WaitGroup
	for i := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], _ = p.Analysis()
		}()
	}
	wg.Wait()
	for i, rep := range reps {
		if rep != reps[0] {
			t.Fatalf("caller %d got a different report", i)
		}
	}
	if got, want := reps[0].String(), fresh.String(); got != want {
		t.Fatalf("shared report differs from a fresh analysis:\n%s\nwant\n%s", got, want)
	}
}
