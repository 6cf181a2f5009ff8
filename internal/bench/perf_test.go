package bench

import (
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// TestPublishMetricsMatchesBenchJSON exercises the contract that the
// -metrics-json registry and the -bench-json perf record report the same
// numbers: every counter PublishMetrics emits must equal the harness
// field the perf record is filled from.
func TestPublishMetricsMatchesBenchJSON(t *testing.T) {
	cache := backend.NewCache()
	stats := NewStats()
	b := backend.NewResCCL()
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: cache, Stats: stats}.init()

	req := backend.Request{Algo: algo, Topo: tp}
	plan, err := compile(opts, b, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compile(opts, b, req); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, err := runPlan(opts, tp, plan, 8<<20, simcost.DefaultChunkBytes); err != nil {
		t.Fatal(err)
	}
	stats.AddRTRun(7, 2)

	m := obs.NewMetrics()
	PublishMetrics(m, cache, stats)

	cs := cache.Stats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cs)
	}
	want := map[string]int64{
		"plan_cache.hits":   cs.Hits,
		"plan_cache.misses": cs.Misses,
		"sim.events":        stats.SimEvents(),
		"sim.runs":          stats.SimRuns(),
		"rt.instances":      stats.RTInstances(),
		"rt.replans":        stats.Replans(),
	}
	for name, v := range want {
		if got := m.Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if stats.SimEvents() == 0 || stats.SimRuns() != 1 {
		t.Errorf("harness stats not populated: events=%d runs=%d", stats.SimEvents(), stats.SimRuns())
	}
	if stats.RTInstances() != 7 || stats.Replans() != 2 {
		t.Errorf("rt stats = %d/%d, want 7/2", stats.RTInstances(), stats.Replans())
	}
	// Nil-safety: none of these may panic.
	PublishMetrics(nil, cache, stats)
	PublishMetrics(m, nil, nil)
}

// TestBenchTraceCollectsTimelines checks that Options.Trace threads
// through the runner: a traced run records one timeline per simulation.
func TestBenchTraceCollectsTimelines(t *testing.T) {
	tr := obs.NewTrace()
	opts := Options{Cache: backend.NewCache(), Stats: NewStats(), Trace: tr}.init()
	b := backend.NewResCCL()
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPlan(opts, tp, plan, 8<<20, simcost.DefaultChunkBytes); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Timelines()); n != 1 {
		t.Errorf("trace has %d timelines, want 1", n)
	}
	var stages int
	for _, sp := range tr.Spans() {
		if sp.Cat == "compile" {
			stages++
		}
	}
	if stages == 0 {
		t.Error("no compile-stage spans recorded")
	}
}
