package backend

import (
	"context"
	"runtime"
	"testing"

	"github.com/resccl/resccl/internal/expert"
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
// Measured: 10,882 allocations for 8,176 tasks (1.33 per task); 10,907
// when vet also ran the budget lints and the allocator recomputed the
// schedule's timeline.
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

// TestCompileScaleBytesPerTask is the byte-volume companion of
// TestCompileScaleAllocsPerTask: the whole public compile of the
// 512-rank plan allocates under a fixed number of bytes per task, so a
// pass that starts rebuilding a private copy of the plan fails here even
// when it does so in a few large allocations. Measured: 6.01 MB for
// 8,176 tasks (735 bytes per task); 831 when vet also ran the budget
// lints and the allocator recomputed the schedule's timeline, 1,129
// before slots named their task, paths were stored per connection and
// adjacency became CSR, and 1,627 before the passes read the shared
// plan instead of copying it.
func TestCompileScaleBytesPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volumes are not meaningful under the race detector")
	}
	const maxPerTask, runs = 760, 3
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	algo, err := synth.HierAllReduce(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Algo: algo, Topo: tp}
	compile := func() *Plan {
		p, err := NewResCCL().Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	nTasks := compile().Kernel.Graph.NTasks() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		compile()
	}
	runtime.ReadMemStats(&after)
	perTask := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(nTasks)
	t.Logf("%.0f bytes per compile for %d tasks (%.0f per task)", perTask*float64(nTasks), nTasks, perTask)
	if perTask > maxPerTask {
		t.Fatalf("%.0f bytes per task, want at most %d", perTask, maxPerTask)
	}
}

// TestCompileScaleRetainedBytesPerTask bounds what the 512-rank plan
// keeps once compiled, the bytes a plan cache holds per entry: the heap
// retained with the plan held stays under a fixed number of bytes per
// task. Measured: 3.15 MB for 8,176 tasks (385 bytes per task); 587
// when every slot copied its task and every task its path.
func TestCompileScaleRetainedBytesPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap measurements")
	}
	const maxPerTask = 400
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	compile := func() *Plan {
		algo, err := synth.HierAllReduce(64, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewResCCL().Compile(context.Background(), Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	compile() // warm up
	p, retained := retainedHeap(1, compile)
	nTasks := p.Kernel.Graph.NTasks()
	perTask := float64(retained) / float64(nTasks)
	t.Logf("%d bytes retained for %d tasks (%.0f per task)", retained, nTasks, perTask)
	if perTask > maxPerTask {
		t.Fatalf("%.0f retained bytes per task, want at most %d", perTask, maxPerTask)
	}
}

// TestBaselineCompileAllocs guards the allocations of a cold baseline
// compile, which the plan service pays on every NCCL or MSCCL cache
// miss: the whole public compile of a 2×8 plan, vet included, stays
// under a fixed allocation count. Measured: NCCL ring-allreduce 294,
// MSCCL hm-allreduce 471 (the MSCCL compile now proves the caller's
// algorithm); 304 and 460 when vet also ran the budget lints and MSCCL
// did not prove the algorithm, and 1,596 and 3,359 when the baselines
// built each thread block's program, slots and label separately
// instead of lowering through kernel.Generate.
func TestBaselineCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tp := topo.New(2, 8, topo.A100())
	for _, c := range []struct {
		algo string
		b    Backend
		max  float64
	}{
		{"ring-allreduce", NewNCCL(), 360},
		{"hm-allreduce", NewMSCCL(), 540},
	} {
		algo, err := expert.BuildOn(c.algo, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		req := Request{Algo: algo, Topo: tp}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := c.b.Compile(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s %s: %.0f allocations per compile", c.b.Name(), c.algo, allocs)
		if allocs > c.max {
			t.Errorf("%s %s: %.0f allocations per compile, want at most %.0f", c.b.Name(), c.algo, allocs, c.max)
		}
	}
}
