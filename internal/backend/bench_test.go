package backend

import (
	"context"
	"testing"

	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// BenchmarkCompileScale is the perfbench compile-scale operation: one
// cold compile of hier-allreduce on a 64×8 rail fabric (512 ranks, two
// spines), including the backend's vet, on a fresh backend. Run it with
// -benchmem (or read ReportAllocs) for the per-compile bytes and
// allocations docs/performance.md tabulates.
func BenchmarkCompileScale(b *testing.B) {
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	algo, err := synth.HierAllReduce(64, 8)
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Algo: algo, Topo: tp}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewResCCL().Compile(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestCompileScaleAllocsPerTask is BenchmarkCompileScale's allocation
// regression guard: the whole public compile of the 512-rank plan —
// correctness gate, dependency analysis, HPDS, TB allocation, lowering
// and vet — stays under a fixed number of allocations per task.
// Measured: 11,097 allocations for 8,176 tasks (1.36 per task).
func TestCompileScaleAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const maxPerTask = 1.4
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	algo, err := synth.HierAllReduce(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Algo: algo, Topo: tp}
	var nTasks int
	allocs := testing.AllocsPerRun(3, func() {
		p, err := NewResCCL().Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		nTasks = p.Kernel.Graph.NTasks()
	})
	perTask := allocs / float64(nTasks)
	t.Logf("%.0f allocations for %d tasks (%.3f per task)", allocs, nTasks, perTask)
	if perTask > maxPerTask {
		t.Fatalf("%.3f allocations per task, want at most %.2f", perTask, maxPerTask)
	}
}
