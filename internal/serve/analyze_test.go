package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/topo"
)

// lintedReq is a plan whose analyze response carries a budget lint
// beside its full report: the synthesized AllReduce keeps 56 thread
// blocks per rank busy under MSCCL, over the budget of 32.
func lintedReq() *AnalyzeRequest {
	return &AnalyzeRequest{CompileRequest: CompileRequest{Tenant: "acme", Backend: "msccl",
		Algorithm: "synth:taccl-allreduce", Nodes: 1, GPUsPerNode: 8}, BufferBytes: 4 << 20}
}

// analyzeBody returns the response's JSON with elapsed_ms zeroed, the
// one field that differs between identical requests.
func analyzeBody(t testing.TB, resp *AnalyzeResponse) string {
	t.Helper()
	masked := *resp
	masked.ElapsedMS = 0
	data, err := json.Marshal(&masked)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// cachedPlan returns the plan the service's cache holds for req, and
// the request's topology.
func cachedPlan(t testing.TB, s *Service, req *AnalyzeRequest) (*backend.Plan, *topo.Topology) {
	t.Helper()
	ereq, call, err := req.build()
	if err != nil {
		t.Fatal(err)
	}
	ereq.Cache = s.cache
	call.BufferBytes = req.BufferBytes
	o, err := exec.Compile(context.Background(), ereq, call)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Hit {
		t.Fatal("the analyzed plan is not in the service's cache")
	}
	return o.Plan, ereq.Topo
}

// A repeat analyze of one key hits the cache, answers byte for byte as
// the first did, and reads the plan's one shared report, which the
// per-request lints never touch.
func TestAnalyzeSharesPlanReport(t *testing.T) {
	s := New(Config{})
	req := lintedReq()
	first, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || first.Warnings == 0 {
		t.Fatalf("first analyze: cache hit %v, %d warnings; want a miss with the budget lint", first.CacheHit, first.Warnings)
	}
	plan, tp := cachedPlan(t, s, req)
	shared, err := plan.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	before := shared.String()
	if lints := cert.BudgetLints(plan.Kernel, tp, cert.Options{BufferBytes: req.BufferBytes}); len(lints) == 0 {
		t.Fatal("the request attaches no lints, so it cannot show the shared report staying unmodified")
	}
	second, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("a repeat analyze missed the plan cache")
	}
	wantBody := analyzeBody(t, second)
	for i := 0; i < 100; i++ {
		again, err := s.Analyze(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := analyzeBody(t, again); got != wantBody {
			t.Fatalf("repeat %d answered\n%s\nwant\n%s", i, got, wantBody)
		}
	}
	if again, _ := plan.Analysis(); again != shared {
		t.Fatal("Analysis returned a different report on a later call")
	}
	if after := shared.String(); after != before {
		t.Fatalf("the shared report changed under 100 analyses:\n%s\nwas\n%s", after, before)
	}
}

// Concurrent analyses of one key all answer the same; under the race
// detector this also checks the report is built once and only read.
func TestAnalyzeSharedReportConcurrent(t *testing.T) {
	s := New(Config{Workers: 8, TenantQuota: -1})
	req := lintedReq()
	bodies := make([]string, 8)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Analyze(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.CacheHit = false // one of them compiled the plan
			bodies[i] = analyzeBody(t, resp)
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("goroutine %d answered\n%s\nwant\n%s", i, b, bodies[0])
		}
	}
}

// serveMixedKeys are the analyze requests of the plan service
// benchmark's (perfbench's serve-mixed) catalog: four algorithms on 1,
// 2 and 4 nodes of four GPUs, flat and rail, under every backend and
// the LL and Simple tiers, at a 4 MiB buffer.
func serveMixedKeys() []*AnalyzeRequest {
	var reqs []*AnalyzeRequest
	for _, algo := range []string{"ring-allreduce", "ring-allgather", "tree-allreduce", "bruck-allgather"} {
		for _, nodes := range []int{1, 2, 4} {
			for _, fabric := range []string{"flat", "rail"} {
				for _, b := range []string{"resccl", "nccl", "msccl"} {
					for _, tier := range []string{"LL", "Simple"} {
						reqs = append(reqs, &AnalyzeRequest{CompileRequest: CompileRequest{Tenant: "t0", Backend: b,
							Algorithm: algo, Nodes: nodes, GPUsPerNode: 4, Fabric: fabric, Protocol: tier}, BufferBytes: 4 << 20})
					}
				}
			}
		}
	}
	return reqs
}

// rebuild answers req the way the analyze endpoint did before plans
// carried their analysis: a fresh compile, simulation and full
// analysis, with the budget lints attached to that report.
func rebuild(t *testing.T, req *AnalyzeRequest, hit bool) *AnalyzeResponse {
	t.Helper()
	ereq, call, err := req.build()
	if err != nil {
		t.Fatal(err)
	}
	call.BufferBytes = req.BufferBytes
	outs, err := exec.Run(context.Background(), ereq, call)
	if err != nil {
		t.Fatal(err)
	}
	o := outs[0]
	opts := cert.Options{BufferBytes: req.BufferBytes}
	rep, err := analyze.Plan(o.Plan.Kernel, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Attach(o.Plan.Kernel.Graph, cert.BudgetLints(o.Plan.Kernel, ereq.Topo, opts)...)
	c, _ := cert.FromCompletion(o.Plan.Kernel, ereq.Topo, opts, o.Result.Completion)
	o.Hit = hit
	errs, warns, infos := rep.Counts()
	resp := &AnalyzeResponse{CompileResponse: *compileResponse(o, 0), Clean: rep.Clean(),
		Errors: errs, Warnings: warns, Notes: infos, Certificate: c}
	for i, d := range rep.Diags {
		if i == maxDiagsInResponse {
			break
		}
		resp.Diags = append(resp.Diags, d.String())
	}
	return resp
}

// Every serve-mixed analyze response, on a cold service and again on
// the warm one, is the one a fresh analysis gives.
func TestAnalyzeMatchesFreshAnalysis(t *testing.T) {
	s := New(Config{})
	for _, warm := range []bool{false, true} {
		for _, req := range serveMixedKeys() {
			name := fmt.Sprintf("%s %dx4 %s %s %s warm=%v", req.Algorithm, req.Nodes, req.Fabric, req.Backend, req.Protocol, warm)
			resp, err := s.Analyze(context.Background(), req)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got, want := analyzeBody(t, resp), analyzeBody(t, rebuild(t, req, warm)); got != want {
				t.Fatalf("%s: service answered\n%s\nwant\n%s", name, got, want)
			}
		}
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// heaviestAnalyze is the serve-mixed analyze request whose full
// analysis costs the most: ring AllReduce on 4×4 under NCCL's LL tier.
func heaviestAnalyze() *AnalyzeRequest {
	return &AnalyzeRequest{CompileRequest: CompileRequest{Tenant: "t0", Backend: "nccl",
		Algorithm: "ring-allreduce", Nodes: 4, GPUsPerNode: 4, Protocol: "LL"}, BufferBytes: 4 << 20}
}

// TestWarmAnalyzeAllocations caps a warm analyze request's allocations.
// It read 451 allocations per request when every request re-ran the
// full analysis, and reads 215 with the plan's report shared.
func TestWarmAnalyzeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const limit = 250
	s := New(Config{})
	req := heaviestAnalyze()
	if _, err := s.Analyze(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Analyze(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm analyze", allocs)
	if allocs > limit {
		t.Fatalf("a warm analyze allocates %.0f times, want at most %d", allocs, limit)
	}
}

// BenchmarkServeAnalyzeWarm is one warm analyze request of the
// heaviest serve-mixed analysis: a cache hit, a simulation, the budget
// lints on a copy of the plan's report, and the certificate.
func BenchmarkServeAnalyzeWarm(b *testing.B) {
	s := New(Config{})
	req := heaviestAnalyze()
	if _, err := s.Analyze(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := s.Analyze(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}
