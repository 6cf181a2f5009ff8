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
