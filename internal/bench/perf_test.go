package bench

import (
	"math"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/topo"
)

// TestMetricsMatchBenchJSON: ressclbench fills its -bench-json record
// from the registry it writes as -metrics-json, so every counter the
// record reads must count what it names: plan-cache hits and misses as
// the cache saw them, simulator runs, events and instances as the runs
// reported them, and the runtime's instances and replans.
func TestMetricsMatchBenchJSON(t *testing.T) {
	cache := backend.NewCache()
	m := obs.NewMetrics()
	b := backend.NewResCCL()
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: cache, Metrics: m}.init()

	req := backend.Request{Algo: algo, Topo: tp}
	plan, err := compile(opts, b, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compile(opts, b, req); err != nil { // cache hit
		t.Fatal(err)
	}
	runs, err := simulate(opts, exec.Request{Topo: tp}, 8<<20, plan)
	if err != nil {
		t.Fatal(err)
	}
	res := runs[0]
	want := map[string]int64{
		"plan_cache.hits":   1,
		"plan_cache.misses": 1,
		"sim.runs":          1,
		"sim.events":        int64(res.Events),
		"sim.instances":     int64(res.Instances),
	}
	for name, v := range want {
		if got := m.Counter(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	var busy float64
	for _, sec := range res.LinkBusy {
		busy += sec
	}
	var gauged float64
	for _, v := range m.Snapshot().Gauges {
		gauged += v
	}
	if busy == 0 || math.Abs(gauged-busy) > 1e-9*busy {
		t.Errorf("link-busy gauges sum to %g s, the run's links were busy %g s", gauged, busy)
	}

	// The faulted experiment drives recovery through replans, and
	// compiles through the same cache.
	if _, err := Faulted(Options{Quick: true, Cache: cache, Metrics: m}); err != nil {
		t.Fatal(err)
	}
	cs := cache.Stats()
	if m.Counter("plan_cache.hits") != cs.Hits || m.Counter("plan_cache.misses") != cs.Misses {
		t.Errorf("registry counts %d hits / %d misses, the cache %d / %d",
			m.Counter("plan_cache.hits"), m.Counter("plan_cache.misses"), cs.Hits, cs.Misses)
	}
	if m.Counter("exec.replans") == 0 {
		t.Error("replans not published")
	}
}

// TestBenchTraceCollectsTimelines checks that Options.Trace threads
// through the runner: a traced run records one timeline per simulation.
func TestBenchTraceCollectsTimelines(t *testing.T) {
	tr := obs.NewTrace()
	opts := Options{Cache: backend.NewCache(), Metrics: obs.NewMetrics(), Trace: tr}.init()
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
	if _, err := simulate(opts, exec.Request{Topo: tp}, 8<<20, plan); err != nil {
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
