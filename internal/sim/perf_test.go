package sim

import (
	"context"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/topo"
)

// largeAllReduce is the simulator's hot-path workload: a 32-rank HM
// AllReduce of 1 GiB on the MSCCL backend (heaviest contention).
func largeAllReduce(tb testing.TB) Config {
	tb.Helper()
	tp := topo.New(4, 8, topo.A100())
	algo, err := expert.HMAllReduce(4, 8)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := backend.NewMSCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		tb.Fatal(err)
	}
	return Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 1 << 30, ChunkBytes: 1 << 20}
}

func BenchmarkLargeAllReduce(b *testing.B) {
	cfg := largeAllReduce(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLargeAllReduceAllocations is BenchmarkLargeAllReduce's
// allocation regression guard: a warm run of 136,832 events allocates
// only its result, as TestWarmRunAllocatesOnlyResult counts it.
// Measured: 3.
func TestLargeAllReduceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := largeAllReduce(t)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 3
	if allocs > bound {
		t.Fatalf("warm large AllReduce allocates %.1f times, want ≤ %d", allocs, bound)
	}
}
