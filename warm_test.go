package resccl

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
)

// A warm operator-level call only simulates: its algorithm is built
// once per communicator and its plan is a cache hit.

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// goldenCommunicator returns a 2×8 A100 communicator dispatching by the
// committed full-sweep table.
func goldenCommunicator(t testing.TB) *Communicator {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("internal", "tune", "testdata", "dispatch.golden"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := LoadDispatchTable(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCommunicator(NewTopology(2, 8, A100()), WithDispatchTable(d))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// trainingStep issues one data-parallel plus ZeRO step: 25 gradient
// buckets from 64 KiB to 256 MiB, each all-gathered, reduce-scattered
// and all-reduced. It returns the algorithm each call ran.
func trainingStep(c *Communicator) (map[string]bool, error) {
	ran := map[string]bool{}
	for i := 0; i < 25; i++ {
		b := int64(math.Round(float64(64<<10)*math.Pow(4096, float64(i)/24)/4096)) * 4096
		for _, op := range []Op{AllGather, ReduceScatter, AllReduce} {
			run, err := c.runOp(op, b, nil)
			if err != nil {
				return nil, fmt.Errorf("%v %d: %w", op, b, err)
			}
			ran[run.Algorithm()] = true
		}
	}
	return ran, nil
}

// TestDispatchBuildsEachAlgorithmOnce: over two training steps every
// algorithm the calls ran is built exactly once, compiling it leaves it
// equal to a fresh build (same plan-cache key), and the plan cache
// counts what it counted before algorithms were memoised.
func TestDispatchBuildsEachAlgorithmOnce(t *testing.T) {
	c := goldenCommunicator(t)
	ran, err := trainingStep(c)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.PlanCacheStats(); st.Hits != 66 || st.Misses != 9 {
		t.Errorf("one step: %d hits, %d misses; want 66, 9", st.Hits, st.Misses)
	}
	first := map[string]*Algorithm{}
	for name, algo := range c.algos {
		first[name] = algo
	}
	if len(first) != len(ran) {
		t.Errorf("memoised %d algorithms for %d distinct ones run", len(first), len(ran))
	}
	if _, err := trainingStep(c); err != nil {
		t.Fatal(err)
	}
	if st := c.PlanCacheStats(); st.Hits != 141 || st.Misses != 9 {
		t.Errorf("two steps: %d hits, %d misses; want 141, 9", st.Hits, st.Misses)
	}
	if len(c.algos) != len(first) {
		t.Errorf("second step memoised %d algorithms, first %d", len(c.algos), len(first))
	}
	keys := backend.NewCache()
	for name, algo := range first {
		if c.algos[name] != algo {
			t.Errorf("%s was rebuilt by the second step", name)
		}
		fresh, err := expert.BuildOn(name, c.topo.NNodes, c.topo.GPUsPerNode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(algo, fresh) {
			t.Errorf("%s changed after it was compiled", name)
		}
		// Equal algorithms have equal plan-cache keys: the fresh build
		// must hit the memoised build's entry.
		be := backend.NewResCCL()
		if _, _, err := keys.CompileNoted(context.Background(), be, backend.Request{Algo: algo, Topo: c.topo}); err != nil {
			t.Fatal(err)
		}
		if _, hit, err := keys.CompileNoted(context.Background(), be, backend.Request{Algo: fresh, Topo: c.topo}); err != nil || !hit {
			t.Errorf("%s: fresh build missed the memoised build's cache entry (err %v)", name, err)
		}
	}
}

// TestConcurrentCallsShareMemo: callers on several goroutines build
// and share one algorithm per name and agree with a serial step.
func TestConcurrentCallsShareMemo(t *testing.T) {
	want, err := trainingStep(goldenCommunicator(t))
	if err != nil {
		t.Fatal(err)
	}
	c := goldenCommunicator(t)
	got := make([]map[string]bool, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ran, err := trainingStep(c)
			if err != nil {
				t.Error(err)
			}
			got[g] = ran
		}(g)
	}
	wg.Wait()
	for g, ran := range got {
		if !reflect.DeepEqual(ran, want) {
			t.Errorf("goroutine %d ran %v, a serial step ran %v", g, ran, want)
		}
	}
	if len(c.algos) != len(want) {
		t.Errorf("memoised %d algorithms for %d distinct ones run", len(c.algos), len(want))
	}
}

// TestWarmDispatchedCallAllocations bounds a warm, dispatched 4 MiB
// AllReduce. Measured: 6 allocations — the simulation's result (3),
// the Run, the call's settings and exec.Run's outcome slice; the
// plan-cache key is memoised and the utilization report waits for
// Run.Utilization. Before algorithms were memoised and the simulator's
// run state pooled it was 1,330; before their keys were, 16.
func TestWarmDispatchedCallAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := goldenCommunicator(t)
	if _, err := c.AllReduce(4 << 20); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.AllReduce(4 << 20); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm dispatched AllReduce: %.1f allocations", allocs)
	const bound = 6
	if allocs > bound {
		t.Fatalf("warm dispatched AllReduce allocates %.1f times, want ≤ %d", allocs, bound)
	}
}

// BenchmarkWarmTrainingStep times one warm 75-call training step
// through the golden dispatch table: dispatch, plan-cache hits and the
// simulator (no call reads its utilization report).
func BenchmarkWarmTrainingStep(b *testing.B) {
	c := goldenCommunicator(b)
	if _, err := trainingStep(c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainingStep(c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemoisedPlanKeys: for every entry of the golden dispatch table,
// a call dispatched to it files its plan under the key the memo holds
// for the entry's (algorithm, tier, table hash); a fresh lookup of the
// same request, which hashes it with backend.Fingerprint, must find
// that plan.
func TestMemoisedPlanKeys(t *testing.T) {
	c := goldenCommunicator(t)
	table := c.def.dispatch
	for _, e := range table.Entries {
		op, err := ir.ParseOpType(e.Op)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.runOp(op, e.ProbeBytes, nil); err != nil {
			t.Fatal(err)
		}
		algo, err := c.named(e.Algorithm)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := ir.ParseProtocol(e.Protocol)
		if err != nil {
			t.Fatal(err)
		}
		req := backend.Request{Algo: algo, Topo: c.topo, Protocol: proto, TuneHash: table.Hash()}
		if _, hit, err := c.cache.CompileNoted(context.Background(), c.backend, req); err != nil || !hit {
			t.Errorf("%s %s %d: the dispatched call's plan is not under the request's fingerprint (err %v)",
				e.Op, e.Algorithm, e.MaxBytes, err)
		}
	}
}
