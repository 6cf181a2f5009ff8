package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
)

// gate wraps a backend so its compiles block until released, while
// still honouring cancellation — the deterministic stand-in for a slow
// compile under load.
type gate struct {
	inner   backend.Backend
	entered chan struct{} // one token per compile entry
	release chan struct{} // closed to let every compile finish
}

func newGate() *gate {
	return &gate{
		entered: make(chan struct{}, 128),
		release: make(chan struct{}),
	}
}

// wrap is the Config.WrapBackend hook.
func (g *gate) wrap(b backend.Backend) backend.Backend {
	gg := *g
	gg.inner = b
	return &gg
}

func (g *gate) Name() string { return "gated-" + g.inner.Name() }

// CompileConfig keeps gated plans cacheable, keyed by the inner
// backend (backend.Configurer).
func (g *gate) CompileConfig() (string, bool) { return "gated:" + g.inner.Name(), true }

func (g *gate) Compile(ctx context.Context, req backend.Request) (*backend.Plan, error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Compile(ctx, req)
}

func compileReq(tenant string) *CompileRequest {
	return &CompileRequest{
		Tenant:      tenant,
		Algorithm:   "ring-allreduce",
		Nodes:       1,
		GPUsPerNode: 4,
	}
}

func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkGoroutines fails the test if the goroutine count does not settle
// back near its baseline — the leak detector for the request path.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCompileBasic(t *testing.T) {
	s := New(Config{})
	resp, err := s.Compile(context.Background(), compileReq("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Backend != "ResCCL" || resp.NTBs <= 0 || !resp.VetClean || resp.CacheHit {
		t.Fatalf("unexpected compile response: %+v", resp)
	}
	again, err := s.Compile(context.Background(), compileReq("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("second identical compile missed the cache: %+v", again)
	}
	m := s.Metrics()
	if got := m.Counter("serve.completed"); got != 2 {
		t.Fatalf("serve.completed = %d, want 2", got)
	}
	if got := m.Counter("serve.tenant.acme.requests"); got != 2 {
		t.Fatalf("tenant requests = %d, want 2", got)
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit / 1 miss", st)
	}
}

func TestSimulateAndAnalyze(t *testing.T) {
	s := New(Config{})
	sres, err := s.Simulate(context.Background(), &SimulateRequest{CompileRequest: *compileReq("")})
	if err != nil {
		t.Fatal(err)
	}
	if sres.CompletionUS <= 0 || sres.AlgoBWGBs <= 0 || sres.Events <= 0 || sres.MicroBatches <= 0 {
		t.Fatalf("degenerate simulate response: %+v", sres)
	}
	ares, err := s.Analyze(context.Background(), &AnalyzeRequest{CompileRequest: *compileReq("")})
	if err != nil {
		t.Fatal(err)
	}
	if !ares.Clean || ares.Errors != 0 {
		t.Fatalf("expert plan analyzed dirty: %+v", ares)
	}
}

// An analyze request simulates once, through the service's execution
// path, so the run reaches the service's metrics, and it certifies the
// same completion a direct cert.Certify of the plan does.
func TestAnalyzeCountsItsSimulation(t *testing.T) {
	s := New(Config{})
	req := &AnalyzeRequest{CompileRequest: *compileReq("")}
	ares, err := s.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().Counter("sim.runs"); got != 1 {
		t.Fatalf("sim.runs = %d after one analyze, want 1", got)
	}
	ereq, call, err := req.build()
	if err != nil {
		t.Fatal(err)
	}
	o, err := exec.Compile(context.Background(), ereq, call)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cert.Certify(o.Plan.Kernel, ereq.Topo, cert.Options{BufferBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if ares.Certificate == nil || ares.Certificate.Hash != want.Hash {
		t.Fatalf("analyze certificate %+v, direct cert.Certify %+v", ares.Certificate, want)
	}
}

// Shapes too large to build fail validation, before anything is
// allocated for them: a rank product that overflows to 0 used to divide
// by zero in the expert builder, and a huge node exhausted memory.
func TestValidateRejectsOversizedShapes(t *testing.T) {
	bad := []CompileRequest{
		{Algorithm: "hm-allreduce", Nodes: 1 << 62, GPUsPerNode: 4},
		{Algorithm: "hm-allreduce", Nodes: 3, GPUsPerNode: 1 << 62},
		{Algorithm: "ring-allreduce", Nodes: 4097, GPUsPerNode: 1},
		{Algorithm: "ring-allreduce", Nodes: 2, GPUsPerNode: 4, Fabric: "rail", Spines: 65},
	}
	for i, req := range bad {
		if err := req.validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("request %d (%d×%d, %d spines): validate returned %v, want ErrInvalid", i, req.Nodes, req.GPUsPerNode, req.Spines, err)
		}
	}
	ok := []CompileRequest{
		{Algorithm: "hier-allreduce", Nodes: 512, GPUsPerNode: 8, Fabric: "rail", Spines: 16},
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4096, Fabric: "clos", Spines: 64},
	}
	for i, req := range ok {
		if err := req.validate(); err != nil {
			t.Errorf("in-bounds request %d rejected: %v", i, err)
		}
	}
}

func TestInvalidRequests(t *testing.T) {
	s := New(Config{})
	bad := []*CompileRequest{
		{Algorithm: "", Nodes: 1, GPUsPerNode: 4},
		{Algorithm: "no-such-algo", Nodes: 1, GPUsPerNode: 4},
		{Algorithm: "ring-allreduce", Nodes: 0, GPUsPerNode: 4},
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4, Backend: "gloo"},
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4, Fabric: "torus"},
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4, Profile: "tpu"},
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4, Protocol: "warp"},
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4, DeadlineMS: -1},
	}
	for i, req := range bad {
		if _, err := s.Compile(context.Background(), req); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad request %d returned %v, want ErrInvalid", i, err)
		}
	}
	// Negative sizes are invalid; zero asks for the default.
	ok := *compileReq("")
	badSizes := []*SimulateRequest{
		{CompileRequest: ok, BufferBytes: -5},
		{CompileRequest: ok, ChunkBytes: -1},
	}
	for i, req := range badSizes {
		if _, err := s.Simulate(context.Background(), req); !errors.Is(err, ErrInvalid) {
			t.Errorf("bad simulate request %d returned %v, want ErrInvalid", i, err)
		}
	}
	if _, err := s.Analyze(context.Background(), &AnalyzeRequest{CompileRequest: ok, BufferBytes: -5}); !errors.Is(err, ErrInvalid) {
		t.Errorf("analyze with a negative buffer returned %v, want ErrInvalid", err)
	}
	if got, want := s.Metrics().Counter("serve.invalid"), int64(len(bad)+len(badSizes)+1); got != want {
		t.Fatalf("serve.invalid = %d, want %d", got, want)
	}
	if st := s.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("invalid requests reached the plan cache: %+v", st)
	}
}

func TestTenantQuota(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, TenantQuota: 1, QueueBudget: -1, WrapBackend: g.wrap})

	first := make(chan error, 1)
	go func() {
		_, err := s.Compile(context.Background(), compileReq("acme"))
		first <- err
	}()
	<-g.entered // acme's request is compiling

	// The same tenant's second request exceeds its quota of 1.
	if _, err := s.Compile(context.Background(), compileReq("acme")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota request returned %v, want ErrQuotaExceeded", err)
	}
	// A different tenant is admitted and queues for the busy worker.
	other := make(chan error, 1)
	go func() {
		_, err := s.Compile(context.Background(), compileReq("globex"))
		other <- err
	}()
	waitFor(t, "globex to queue", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting == 1
	})

	close(g.release)
	if err := <-first; err != nil {
		t.Fatalf("acme request failed: %v", err)
	}
	if err := <-other; err != nil {
		t.Fatalf("globex request failed: %v", err)
	}
	if got := s.Metrics().Counter("serve.shed.quota"); got != 1 {
		t.Fatalf("serve.shed.quota = %d, want 1", got)
	}
}

func TestQueueFullOverload(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, MaxQueue: 1, QueueBudget: -1, WrapBackend: g.wrap})

	running := make(chan error, 1)
	go func() {
		_, err := s.Compile(context.Background(), compileReq("a"))
		running <- err
	}()
	<-g.entered

	queued := make(chan error, 1)
	go func() {
		_, err := s.Compile(context.Background(), compileReq("b"))
		queued <- err
	}()
	waitFor(t, "b to queue", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting == 1
	})

	// The queue is full: the third arrival sheds immediately.
	if _, err := s.Compile(context.Background(), compileReq("c")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third request returned %v, want ErrOverloaded", err)
	}

	close(g.release)
	for _, ch := range []chan error{running, queued} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().Counter("serve.shed.overloaded"); got != 1 {
		t.Fatalf("serve.shed.overloaded = %d, want 1", got)
	}
}

func TestQueueBudgetShed(t *testing.T) {
	g := newGate()
	s := New(Config{Workers: 1, QueueBudget: 20 * time.Millisecond, WrapBackend: g.wrap})

	done := make(chan error, 1)
	go func() {
		_, err := s.Compile(context.Background(), compileReq("a"))
		done <- err
	}()
	<-g.entered

	// The second request cannot reach a worker within the budget.
	if _, err := s.Compile(context.Background(), compileReq("b")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("budget-expired request returned %v, want ErrOverloaded", err)
	}

	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRequestDeadline(t *testing.T) {
	g := newGate() // never released: the compile hangs until its deadline
	s := New(Config{WrapBackend: g.wrap})
	req := compileReq("t")
	req.DeadlineMS = 20
	_, err := s.Compile(context.Background(), req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-capped request returned %v, want deadline exceeded", err)
	}
	if got := s.Metrics().Counter("serve.deadline_exceeded"); got != 1 {
		t.Fatalf("serve.deadline_exceeded = %d, want 1", got)
	}
}

func TestCallerCancelMidCompile(t *testing.T) {
	g := newGate()
	defer close(g.release)
	s := New(Config{WrapBackend: g.wrap})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Compile(ctx, compileReq("t"))
		done <- err
	}()
	<-g.entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request returned %v, want context.Canceled", err)
	}
	if got := s.Metrics().Counter("serve.cancelled"); got != 1 {
		t.Fatalf("serve.cancelled = %d, want 1", got)
	}
	waitFor(t, "in-flight to settle", func() bool { return s.InFlight() == 0 })
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{})
	if !s.Ready() {
		t.Fatal("fresh service not ready")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("drained service still ready")
	}
	if _, err := s.Compile(context.Background(), compileReq("t")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request returned %v, want ErrDraining", err)
	}
	if got := s.Metrics().Counter("serve.shed.draining"); got != 1 {
		t.Fatalf("serve.shed.draining = %d, want 1", got)
	}
}

// TestDrainUnderLoad is the satellite contract: drain with both running
// and queued requests in flight must hard-cancel everything after the
// drain deadline, unwind cleanly, and leak nothing.
func TestDrainUnderLoad(t *testing.T) {
	before := runtime.NumGoroutine()
	g := newGate() // never released: requests only finish via hard cancel
	s := New(Config{Workers: 2, MaxQueue: 8, QueueBudget: -1, WrapBackend: g.wrap})

	const n = 6 // 2 running + 4 queued
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		// Distinct rank counts so the shared cache cannot coalesce the
		// requests into one singleflight — each occupies its own worker.
		req := compileReq(fmt.Sprintf("t%d", i))
		req.GPUsPerNode = 2 + i
		go func() {
			_, err := s.Compile(context.Background(), req)
			errs <- err
		}()
	}
	<-g.entered
	<-g.entered // both workers busy
	waitFor(t, "the rest to queue", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.waiting == n-2
	})

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}

	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Errorf("in-flight request %d returned %v, want context.Canceled", i, err)
		}
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
	if _, err := s.Compile(context.Background(), compileReq("late")); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request returned %v, want ErrDraining", err)
	}
	checkGoroutines(t, before)
}

// TestConcurrentMixedTenants storms the service with every endpoint and
// verifies the success-or-typed-error contract under -race.
func TestConcurrentMixedTenants(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 4, MaxQueue: 4, QueueBudget: 50 * time.Millisecond, TenantQuota: 4})

	shapes := []CompileRequest{
		{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4},
		{Algorithm: "ring-allgather", Nodes: 1, GPUsPerNode: 8},
		{Algorithm: "hm-allreduce", Nodes: 2, GPUsPerNode: 2, Fabric: "clos"},
		{Algorithm: "hm-allgather", Nodes: 2, GPUsPerNode: 4, Fabric: "rail", Backend: "msccl"},
		{Algorithm: "tree-allreduce", Nodes: 1, GPUsPerNode: 8, Backend: "nccl"},
	}
	const n = 48
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := shapes[i%len(shapes)]
			req.Tenant = fmt.Sprintf("t%d", i%3)
			var err error
			switch i % 3 {
			case 0:
				_, err = s.Compile(context.Background(), &req)
			case 1:
				_, err = s.Simulate(context.Background(), &SimulateRequest{CompileRequest: req, BufferBytes: 1 << 20})
			default:
				_, err = s.Analyze(context.Background(), &AnalyzeRequest{CompileRequest: req})
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()

	completed := 0
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQuotaExceeded),
			errors.Is(err, context.DeadlineExceeded):
		default:
			t.Errorf("request %d returned untyped error: %v", i, err)
		}
	}
	if completed == 0 {
		t.Fatal("no request completed")
	}
	m := s.Metrics()
	if got := m.Counter("serve.completed"); got != int64(completed) {
		t.Fatalf("serve.completed = %d, observed %d successes", got, completed)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before)
}

func TestLatencyWindow(t *testing.T) {
	w := newLatWindow(100)
	for i := 1; i <= 100; i++ {
		w.record(float64(i))
	}
	p50, p95, p99, n := w.percentiles()
	if n != 100 || p50 != 50 || p95 != 95 || p99 != 99 {
		t.Fatalf("percentiles = %v/%v/%v over %d, want 50/95/99 over 100", p50, p95, p99, n)
	}
	// Wrap-around keeps only the newest samples.
	small := newLatWindow(4)
	for i := 1; i <= 8; i++ {
		small.record(float64(i))
	}
	if _, _, p99, n := small.percentiles(); n != 8 || p99 != 8 {
		t.Fatalf("wrapped window p99 = %v over %d, want 8 over 8", p99, n)
	}
}

func TestSyncGaugesPublishesPercentiles(t *testing.T) {
	s := New(Config{})
	if _, err := s.Compile(context.Background(), compileReq("acme")); err != nil {
		t.Fatal(err)
	}
	s.SyncGauges()
	snap := s.Metrics().Snapshot()
	for _, name := range []string{
		"serve.latency_ms.p50", "serve.latency_ms.p99",
		"serve.tenant.acme.latency_ms.p50", "serve.cache.entries",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q missing from snapshot (have %v)", name, snap.Gauges)
		}
	}
}

// TestTenantWindowFloodBounded proves a tenant-ID flood cannot grow the
// latency-window map or the per-tenant counter series without bound:
// past the budget, tenants count only in the service totals and the
// overflow counter.
func TestTenantWindowFloodBounded(t *testing.T) {
	s := New(Config{})
	const tenants = 2*maxTenantWindows + 50
	for i := 0; i < tenants; i++ {
		// Half the flood is invalid, so the failure series is flooded too.
		req := compileReq(fmt.Sprintf("flood-%d-%s", i, strings.Repeat("x", 48)))
		if i%2 == 1 {
			req.Nodes = 0
		}
		if _, err := s.Compile(context.Background(), req); err != nil && !errors.Is(err, ErrInvalid) {
			t.Fatal(err)
		}
	}
	s.latMu.Lock()
	n := len(s.lat)
	s.latMu.Unlock()
	if n > maxTenantWindows {
		t.Fatalf("window map grew to %d entries, cap is %d", n, maxTenantWindows)
	}
	snap := s.Metrics().Snapshot()
	series := 0
	for name := range snap.Counters { //resccl:allow mapiter
		if strings.HasPrefix(name, "serve.tenant.") {
			series++
		}
	}
	// Each tracked tenant has a requests counter and one outcome counter.
	if limit := 2 * (maxTenantWindows - 1); series > limit {
		t.Fatalf("%d per-tenant counters after %d tenants, want at most %d", series, tenants, limit)
	}
	m := s.Metrics()
	if got, want := m.Counter("serve.requests"), int64(tenants); got != want {
		t.Fatalf("serve.requests = %d, want %d", got, want)
	}
	if got, want := m.Counter("serve.tenant_overflow.requests"), int64(tenants-(maxTenantWindows-1)); got != want {
		t.Fatalf("serve.tenant_overflow.requests = %d, want %d", got, want)
	}
	// Overflow tenants still record globally.
	_, _, _, before := s.window("").percentiles()
	s.classifyResult(s.series("flood-overflow-x"), time.Now().Add(-time.Millisecond), nil)
	if _, _, _, after := s.window("").percentiles(); after != before+1 {
		t.Fatalf("global window has %d samples, want %d", after, before+1)
	}
}

// The service's own tenants, and the chaos sweep's, keep their series.
func TestKnownTenantsKeepSeries(t *testing.T) {
	s := New(Config{})
	for _, tenant := range []string{"t0", "t1", "t2", "t3", "warm", "tenant-0", "tenant-15", strings.Repeat("t", maxTenantBytes)} {
		if _, err := s.Compile(context.Background(), compileReq(tenant)); err != nil {
			t.Fatalf("tenant %q: %v", tenant, err)
		}
		if got := s.Metrics().Counter("serve.tenant." + tenant + ".completed"); got != 1 {
			t.Fatalf("serve.tenant.%s.completed = %d, want 1", tenant, got)
		}
	}
	if got := s.Metrics().Counter("serve.tenant_overflow.requests"); got != 0 {
		t.Fatalf("serve.tenant_overflow.requests = %d, want 0", got)
	}
}

// The simulated work of a simulate or analyze request is bounded before
// it starts. The reproducer, a 1 GiB ring AllReduce on 1×4 in 4 KiB
// chunks (1,572,864 instances), is accepted and took 440 ms; the
// variants below would run 16 to 1,024 times as many, and are rejected after
// their compile without a simulation.
func TestSimulatedWorkBounded(t *testing.T) {
	s := New(Config{})
	repro := CompileRequest{Backend: "nccl", Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4, DeadlineMS: 100}
	simulate := []*SimulateRequest{
		{CompileRequest: repro, BufferBytes: 1 << 30, ChunkBytes: 64},
		{CompileRequest: repro, BufferBytes: 1 << 34, ChunkBytes: 4 << 10},
		{CompileRequest: repro, BufferBytes: 1 << 40, ChunkBytes: 4 << 10},
	}
	for i, req := range simulate {
		if _, err := s.Simulate(context.Background(), req); !errors.Is(err, ErrInvalid) {
			t.Errorf("simulate variant %d returned %v, want ErrInvalid", i, err)
		}
	}
	if _, err := s.Analyze(context.Background(), &AnalyzeRequest{CompileRequest: repro, BufferBytes: 1 << 40}); !errors.Is(err, ErrInvalid) {
		t.Errorf("analyze of a 1 TiB buffer returned %v, want ErrInvalid", err)
	}
	m := s.Metrics()
	if got := m.Counter("sim.runs"); got != 0 {
		t.Fatalf("sim.runs = %d, want 0: a rejected request simulated", got)
	}
	if got := m.Counter("serve.invalid"); got != int64(len(simulate)+1) {
		t.Fatalf("serve.invalid = %d, want %d", got, len(simulate)+1)
	}

	// The reproducer itself stays within the bound.
	ereq, call, err := repro.build()
	if err != nil {
		t.Fatal(err)
	}
	o, err := exec.Compile(context.Background(), ereq, call)
	if err != nil {
		t.Fatal(err)
	}
	if tasks, mbs := geometry(o.Plan.Kernel, 1<<30, 4<<10); tasks*mbs != 1572864 || tasks*mbs > maxInstances {
		t.Fatalf("the reproducer runs %d×%d instances, want 1572864, within the bound %d", tasks, mbs, maxInstances)
	}
}

// The bound counts instances as the simulator does: on serve-mixed's
// largest run, on tiers that cap the chunk and on a chunk too large
// for int64 arithmetic, the count geometry gives is the count the
// simulation reports.
func TestGeometryMatchesSimulator(t *testing.T) {
	s := New(Config{})
	reqs := []*SimulateRequest{
		{CompileRequest: CompileRequest{Backend: "msccl", Algorithm: "tree-allreduce", Nodes: 4, GPUsPerNode: 4, Protocol: "LL"}, BufferBytes: 4 << 20},
		{CompileRequest: CompileRequest{Backend: "nccl", Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4}, BufferBytes: 1 << 20, ChunkBytes: 4 << 10},
		{CompileRequest: CompileRequest{Algorithm: "hm-allgather", Nodes: 2, GPUsPerNode: 4, Protocol: "LL128"}, BufferBytes: 3 << 20},
		{CompileRequest: CompileRequest{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4}},
		// chunk·NChunks wraps to 0 in int64; it used to divide by zero.
		{CompileRequest: CompileRequest{Algorithm: "ring-allreduce", Nodes: 1, GPUsPerNode: 4}, ChunkBytes: 1 << 62},
	}
	for i, req := range reqs {
		resp, err := s.Simulate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		ereq, call, err := req.build()
		if err != nil {
			t.Fatal(err)
		}
		bufBytes, _ := payload(req.BufferBytes, req.ChunkBytes)
		call.BufferBytes = bufBytes
		o, err := exec.Compile(context.Background(), ereq, call)
		if err != nil {
			t.Fatal(err)
		}
		if tasks, mbs := geometry(o.Plan.Kernel, bufBytes, req.ChunkBytes); tasks*mbs != resp.Instances || mbs != resp.MicroBatches {
			t.Errorf("request %d: geometry gives %d×%d instances, the simulator ran %d in %d micro-batches",
				i, tasks, mbs, resp.Instances, resp.MicroBatches)
		}
		if i == 0 && resp.Instances != 1920 {
			t.Errorf("serve-mixed's largest run simulated %d instances, want 1920", resp.Instances)
		}
	}
}
