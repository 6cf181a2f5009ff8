// Package serve is the multi-tenant plan service behind ressclserve:
// admission control over the shared compile pipeline, per-tenant
// quotas, bounded queueing with load shedding, deadline propagation
// into the cancellable backend compilers, and graceful drain. It is the
// robustness layer between untrusted concurrent tenants and the
// deterministic compile/simulate/analyze core.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/obs"
)

// Typed admission errors. Handlers map them, and the
// context.DeadlineExceeded of a request past its deadline, to
// transport-level status codes (HTTP: 429 / 503 / 504); embedders test
// them with errors.Is.
var (
	// ErrOverloaded means the bounded work queue is full or the request
	// exhausted its queue-wait budget before reaching a worker.
	ErrOverloaded = errors.New("serve: overloaded")
	// ErrQuotaExceeded means the tenant is already at its concurrency
	// quota.
	ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")
	// ErrDraining means the service has stopped admitting work for
	// shutdown.
	ErrDraining = errors.New("serve: draining")
	// ErrInvalid marks malformed requests, rejected before admission.
	ErrInvalid = errors.New("serve: invalid request")
)

// Config tunes the service. The zero value picks the defaults below.
type Config struct {
	// Workers is the number of concurrent compile slots (default 4).
	Workers int
	// MaxQueue bounds how many admitted requests may wait for a slot;
	// further arrivals shed with ErrOverloaded (default 64).
	MaxQueue int
	// QueueBudget is the longest a request may wait for a worker slot
	// before shedding with ErrOverloaded (default 2s). Negative
	// disables the budget.
	QueueBudget time.Duration
	// TenantQuota bounds one tenant's in-flight requests, queued and
	// running combined (default 16). Negative disables quotas.
	TenantQuota int
	// DefaultDeadline caps request processing when the request carries
	// no deadline of its own (default 30s). Negative disables it.
	DefaultDeadline time.Duration
	// Cache is the shared bounded plan cache. Nil builds one from
	// CacheConfig.
	Cache *backend.Cache
	// CacheConfig configures the cache built when Cache is nil.
	CacheConfig backend.CacheConfig
	// Metrics receives service counters and gauges. Nil builds a fresh
	// set.
	Metrics *obs.Metrics
	// WrapBackend, when set, wraps every request's compiler before use —
	// the hook chaos sweeps and tests use to inject delays, faults or
	// gates. Wrappers should implement backend.Configurer to stay
	// cacheable. Nil leaves backends untouched.
	WrapBackend func(backend.Backend) backend.Backend
}

// Defaults for the zero Config.
const (
	DefaultWorkers     = 4
	DefaultMaxQueue    = 64
	DefaultQueueBudget = 2 * time.Second
	DefaultTenantQuota = 16
	DefaultDeadline    = 30 * time.Second
)

// drainGrace bounds how long Drain waits for hard-cancelled requests to
// unwind after the drain deadline fires. The compile pipeline observes
// cancellation at phase boundaries, so this only triggers on a stuck
// backend — which Drain then reports instead of hanging shutdown.
const drainGrace = 10 * time.Second

// maxTenantWindows bounds the latency windows, the global one
// included, and with them the tenants that get their own metric series,
// so a tenant-ID flood cannot grow memory or /metricsz without bound.
// Overflow tenants still feed the global window and counters.
const maxTenantWindows = 256

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.QueueBudget == 0 {
		c.QueueBudget = DefaultQueueBudget
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = DefaultTenantQuota
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = DefaultDeadline
	}
	return c
}

// Service is the admission-controlled multi-tenant front of the compile
// pipeline. All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	cache   *backend.Cache
	metrics *obs.Metrics

	slots chan struct{} // worker tokens; len == running compiles

	mu       sync.Mutex
	draining bool
	waiting  int            // admitted, not yet holding a slot
	tenants  map[string]int // in-flight per tenant
	cancels  map[uint64]context.CancelFunc
	nextID   uint64
	wg       sync.WaitGroup

	latMu sync.Mutex
	lat   map[string]*latWindow // "" is the global window
}

// New builds a Service from cfg.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	cache := cfg.Cache
	if cache == nil {
		cache = backend.NewCacheWith(cfg.CacheConfig)
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewMetrics()
	}
	return &Service{
		cfg:     cfg,
		cache:   cache,
		metrics: metrics,
		slots:   make(chan struct{}, cfg.Workers),
		tenants: make(map[string]int),
		cancels: make(map[uint64]context.CancelFunc),
		lat:     map[string]*latWindow{"": newLatWindow(0)},
	}
}

// Compile compiles a plan for the tenant, going through admission. A
// compile has no size, so an auto tier stays auto.
func (s *Service) Compile(ctx context.Context, req *CompileRequest) (*CompileResponse, error) {
	var out *CompileResponse
	err := s.run(ctx, req, nil, func(ctx context.Context, ereq exec.Request, call exec.Call) error {
		start := time.Now()
		o, err := exec.Compile(ctx, ereq, call)
		if err != nil {
			return err
		}
		out = compileResponse(o, time.Since(start))
		return nil
	})
	return out, err
}

// Simulate compiles a plan and runs the what-if simulator on it.
func (s *Service) Simulate(ctx context.Context, req *SimulateRequest) (*SimulateResponse, error) {
	bufBytes, invalid := payload(req.BufferBytes, req.ChunkBytes)
	var out *SimulateResponse
	err := s.run(ctx, &req.CompileRequest, invalid, func(ctx context.Context, ereq exec.Request, call exec.Call) error {
		start := time.Now()
		ereq.ChunkBytes = req.ChunkBytes
		call.BufferBytes = bufBytes
		o, err := execute(ctx, ereq, call)
		if err != nil {
			return err
		}
		res := o.Result
		out = &SimulateResponse{
			CompileResponse: *compileResponse(o, time.Since(start)),
			CompletionUS:    res.Completion * 1e6,
			AlgoBWGBs:       res.AlgoBW / 1e9,
			LinkUtil:        res.MeanLinkUtilization(),
			Events:          res.Events,
			Instances:       res.Instances,
			MicroBatches:    res.Plan.NMicroBatches,
		}
		return nil
	})
	return out, err
}

// Analyze compiles a plan, runs every static-analysis pass on it, and
// certifies its resource efficiency (optimality gap against the α–β
// lower bound, occupancy and buffer peaks against the default budget).
// The analysis is the plan's own (backend.Plan.Analysis), computed once
// per cached plan; the budget lints depend on the request's buffer, so
// they join a copy of it. The simulation and the certificate are per
// request.
func (s *Service) Analyze(ctx context.Context, req *AnalyzeRequest) (*AnalyzeResponse, error) {
	bufBytes, invalid := payload(req.BufferBytes, 0)
	certOpts := cert.Options{BufferBytes: bufBytes}
	var out *AnalyzeResponse
	err := s.run(ctx, &req.CompileRequest, invalid, func(ctx context.Context, ereq exec.Request, call exec.Call) error {
		start := time.Now()
		call.BufferBytes = bufBytes
		o, err := execute(ctx, ereq, call)
		if err != nil {
			return err
		}
		plan := o.Plan
		shared, err := plan.Analysis()
		if err != nil {
			return fmt.Errorf("serve: analyze: %w", err)
		}
		// Budget lints join the report; certification failure (e.g. a
		// degenerate plan with no lower bound) is not an analysis error.
		rep := shared.With(plan.Kernel.Graph, cert.BudgetLints(plan.Kernel, ereq.Topo, certOpts)...)
		certificate, _ := cert.FromCompletion(plan.Kernel, ereq.Topo, certOpts, o.Result.Completion)
		errs, warns, infos := rep.Counts()
		resp := &AnalyzeResponse{
			CompileResponse: *compileResponse(o, time.Since(start)),
			Clean:           rep.Clean(),
			Errors:          errs,
			Warnings:        warns,
			Notes:           infos,
			Certificate:     certificate,
		}
		for i, d := range rep.Diags {
			if i == maxDiagsInResponse {
				break
			}
			resp.Diags = append(resp.Diags, d.String())
		}
		out = resp
		return nil
	})
	return out, err
}

// execute compiles call and simulates it, as exec.Run does, but
// rejects with ErrInvalid, before simulating, a run of more than
// maxInstances simulated instances. sim.Run takes no context, so this
// bound is what keeps a request from holding its worker far past its
// deadline.
func execute(ctx context.Context, ereq exec.Request, call exec.Call) (exec.Outcome, error) {
	o, err := exec.Compile(ctx, ereq, call)
	if err != nil {
		return exec.Outcome{}, err
	}
	// Divide rather than multiply: the product may overflow.
	if tasks, mbs := geometry(o.Plan.Kernel, call.BufferBytes, ereq.ChunkBytes); tasks > 0 && mbs > maxInstances/tasks {
		return exec.Outcome{}, fmt.Errorf("%w: %d tasks × %d micro-batches exceeds %d simulated instances (raise chunk_bytes or lower buffer_bytes)",
			ErrInvalid, tasks, mbs, maxInstances)
	}
	outs := []exec.Outcome{o}
	if err := exec.Simulate(ereq, []exec.Call{call}, outs); err != nil {
		return exec.Outcome{}, err
	}
	return outs[0], nil
}

func compileResponse(o exec.Outcome, elapsed time.Duration) *CompileResponse {
	p := o.Plan
	return &CompileResponse{
		Backend:    p.Backend,
		Kernel:     p.Kernel.Name,
		Protocol:   o.Protocol.String(),
		CacheHit:   o.Hit,
		NTBs:       p.Kernel.NTBs(),
		MaxTBsRank: p.Kernel.MaxTBsPerRank(),
		TotalSlots: p.Kernel.TotalSlots(),
		VetClean:   p.Vet == nil || p.Vet.Clean(),
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
	}
}

// run is the shared request path: validate → admit → deadline → build →
// execute → classify. invalid is the endpoint's own verdict on its
// fields beyond req, nil when they are sound. fn runs while holding a
// worker slot with a cancellable, deadline-capped ctx.
func (s *Service) run(ctx context.Context, req *CompileRequest, invalid error, fn func(context.Context, exec.Request, exec.Call) error) error {
	tenant := req.tenant()
	series := s.series(tenant)
	s.metrics.Add("serve.requests", 1)
	series.add("requests")

	err := req.validate()
	if err == nil {
		err = invalid
	}
	if err != nil {
		s.metrics.Add("serve.invalid", 1)
		series.add("failed")
		return err
	}

	// The request context gains (a) a cancel registered for drain's
	// hard-cancel pass and (b) the effective deadline — before
	// admission, so queued requests are cancellable too and queue time
	// counts against the deadline.
	runCtx, unregister := s.registerCancel(ctx)
	defer unregister()
	if d := s.deadline(req); d > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, d)
		defer cancel()
	}

	release, err := s.admit(runCtx, tenant)
	if err != nil {
		s.classifyShed(series, err)
		return err
	}
	defer release()

	ereq, call, err := req.build()
	if err != nil {
		s.metrics.Add("serve.invalid", 1)
		series.add("failed")
		return err
	}
	ereq.Cache, ereq.Metrics = s.cache, s.metrics
	if s.cfg.WrapBackend != nil {
		ereq.Backend = s.cfg.WrapBackend(ereq.Backend)
	}

	start := time.Now()
	err = fn(runCtx, ereq, call)
	s.classifyResult(series, start, err)
	return err
}

// tenantSeries is one request's per-tenant metrics: the tenant's
// counter prefix and latency window, both empty for a tenant beyond
// the maxTenantWindows budget.
type tenantSeries struct {
	metrics *obs.Metrics
	prefix  string // "serve.tenant.<id>."
	window  *latWindow
}

// series returns the tenant's metrics, creating its window on first
// use. A tenant beyond the budget (or with an ID validate rejects)
// counts one request in serve.tenant_overflow.requests and nothing
// else of its own.
func (s *Service) series(tenant string) tenantSeries {
	ts := tenantSeries{metrics: s.metrics}
	if len(tenant) <= maxTenantBytes {
		ts.window = s.window(tenant)
	}
	if ts.window == nil {
		s.metrics.Add("serve.tenant_overflow.requests", 1)
		return ts
	}
	ts.prefix = "serve.tenant." + tenant + "."
	return ts
}

// add counts one event in the tenant's own counter name, if it has a
// series.
func (ts tenantSeries) add(name string) {
	if ts.prefix != "" {
		ts.metrics.Add(ts.prefix+name, 1)
	}
}

// deadline computes the effective processing budget: the tighter of the
// request's own deadline and the service default.
func (s *Service) deadline(req *CompileRequest) time.Duration {
	d := s.cfg.DefaultDeadline
	if d < 0 {
		d = 0
	}
	if req.DeadlineMS > 0 {
		rd := time.Duration(req.DeadlineMS) * time.Millisecond
		if d == 0 || rd < d {
			d = rd
		}
	}
	return d
}

// admit applies the admission policy and, on success, waits for a
// worker slot. The returned release func must be called exactly once
// when the request finishes.
func (s *Service) admit(ctx context.Context, tenant string) (func(), error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if q := s.cfg.TenantQuota; q > 0 && s.tenants[tenant] >= q {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q already has %d request(s) in flight", ErrQuotaExceeded, tenant, q)
	}
	if s.waiting >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: queue full (%d waiting)", ErrOverloaded, s.cfg.MaxQueue)
	}
	s.waiting++
	s.tenants[tenant]++
	s.wg.Add(1)
	s.mu.Unlock()

	leaveQueue := func() {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
	}
	finish := func() {
		s.mu.Lock()
		s.tenants[tenant]--
		if s.tenants[tenant] <= 0 {
			delete(s.tenants, tenant)
		}
		s.mu.Unlock()
		s.wg.Done()
	}

	var budget <-chan time.Time
	if s.cfg.QueueBudget > 0 {
		t := time.NewTimer(s.cfg.QueueBudget)
		defer t.Stop()
		budget = t.C
	}
	select {
	case s.slots <- struct{}{}:
		leaveQueue()
	case <-ctx.Done():
		leaveQueue()
		finish()
		return nil, ctx.Err()
	case <-budget:
		leaveQueue()
		finish()
		return nil, fmt.Errorf("%w: no worker within queue budget %v", ErrOverloaded, s.cfg.QueueBudget)
	}
	return func() {
		<-s.slots
		finish()
	}, nil
}

// registerCancel derives a cancellable context and registers its cancel
// for Drain's hard-cancel pass. The returned unregister must be
// deferred.
func (s *Service) registerCancel(ctx context.Context) (context.Context, func()) {
	runCtx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.cancels[id] = cancel
	s.mu.Unlock()
	return runCtx, func() {
		s.mu.Lock()
		delete(s.cancels, id)
		s.mu.Unlock()
		cancel()
	}
}

func (s *Service) classifyShed(series tenantSeries, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		s.metrics.Add("serve.shed.draining", 1)
	case errors.Is(err, ErrQuotaExceeded):
		s.metrics.Add("serve.shed.quota", 1)
	case errors.Is(err, ErrOverloaded):
		s.metrics.Add("serve.shed.overloaded", 1)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Add("serve.deadline_exceeded", 1)
	default:
		s.metrics.Add("serve.cancelled", 1)
	}
	series.add("shed")
}

func (s *Service) classifyResult(series tenantSeries, start time.Time, err error) {
	switch {
	case err == nil:
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		s.metrics.Add("serve.completed", 1)
		series.add("completed")
		s.window("").record(ms)
		if series.window != nil {
			series.window.record(ms)
		}
		return
	case errors.Is(err, ErrInvalid):
		s.metrics.Add("serve.invalid", 1)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.Add("serve.deadline_exceeded", 1)
	case errors.Is(err, context.Canceled):
		s.metrics.Add("serve.cancelled", 1)
	default:
		s.metrics.Add("serve.failed", 1)
	}
	series.add("failed")
}

// window returns the latency window for the tenant ("" is global),
// creating it on first use. Returns nil for tenants beyond the window
// budget — their samples still land in the global window.
func (s *Service) window(tenant string) *latWindow {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if w, ok := s.lat[tenant]; ok {
		return w
	}
	if len(s.lat) >= maxTenantWindows {
		return nil
	}
	w := newLatWindow(0)
	s.lat[tenant] = w
	return w
}

// Draining reports whether the service has stopped admitting work.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Ready reports whether the service admits new work.
func (s *Service) Ready() bool { return !s.Draining() }

// InFlight returns the number of admitted, unfinished requests.
func (s *Service) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.tenants { //resccl:allow mapiter
		n += c
	}
	return n
}

// CacheStats exposes the shared plan cache's counters.
func (s *Service) CacheStats() backend.CacheStats { return s.cache.Stats() }

// Metrics exposes the service's metric set.
func (s *Service) Metrics() *obs.Metrics { return s.metrics }

// Drain performs graceful shutdown: stop admitting (new requests shed
// with ErrDraining), wait for in-flight requests until ctx expires,
// then hard-cancel stragglers and wait a bounded grace for them to
// unwind. Latency and cache gauges are flushed before returning. Drain
// is idempotent; concurrent calls all wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: hard-cancel every registered request. The
		// compile pipeline observes cancellation at phase boundaries,
		// so stragglers unwind promptly; a stuck backend is reported,
		// not waited on forever.
		s.mu.Lock()
		for _, cancel := range s.cancels { //resccl:allow mapiter
			cancel()
		}
		s.mu.Unlock()
		select {
		case <-done:
		case <-time.After(drainGrace):
			err = fmt.Errorf("serve: drain incomplete: %d request(s) ignored hard cancel", s.InFlight())
		}
	}
	s.SyncGauges()
	return err
}

// SyncGauges publishes latency percentiles and cache statistics as
// gauges, so a metrics snapshot is self-contained. Called automatically
// by Drain and the metrics endpoint.
func (s *Service) SyncGauges() {
	s.latMu.Lock()
	windows := make(map[string]*latWindow, len(s.lat))
	for k, w := range s.lat { //resccl:allow mapiter
		windows[k] = w
	}
	s.latMu.Unlock()
	for tenant, w := range windows { //resccl:allow mapiter
		p50, p95, p99, n := w.percentiles()
		if n == 0 {
			continue
		}
		prefix := "serve.latency_ms."
		if tenant != "" {
			prefix = "serve.tenant." + tenant + ".latency_ms."
		}
		s.metrics.SetGauge(prefix+"p50", p50)
		s.metrics.SetGauge(prefix+"p95", p95)
		s.metrics.SetGauge(prefix+"p99", p99)
	}
	st := s.cache.Stats()
	s.metrics.SetGauge("serve.cache.hits", float64(st.Hits))
	s.metrics.SetGauge("serve.cache.misses", float64(st.Misses))
	s.metrics.SetGauge("serve.cache.evictions", float64(st.Evictions))
	s.metrics.SetGauge("serve.cache.entries", float64(st.Entries))
	s.metrics.SetGauge("serve.cache.bytes", float64(st.Bytes))
}

// WriteMetricsJSON syncs gauges and writes the deterministic
// (sorted-key) JSON snapshot of every counter and gauge.
func (s *Service) WriteMetricsJSON(w io.Writer) error {
	s.SyncGauges()
	return s.metrics.WriteJSON(w)
}
