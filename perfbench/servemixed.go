package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/serve"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
)

// serve-mixed: an open loop of Poisson arrivals at a fixed rate against
// the plan service's HTTP handler. Requests draw from a fixed Zipf key
// set over algorithm × shape × fabric × backend × tier and three
// endpoints; the plan cache holds fewer plans than the key set names,
// so cold compiles and evictions run beside cache reads.

const (
	// serveRate is about a tenth of the closed-loop capacity that
	// BenchmarkServeCapacity measures: 1,000-1,800 req/s on a shared
	// 2-vCPU host, depending on how busy the host is. At 300 req/s,
	// median and p99 latency rose by up to 1.7× and 2.3× whenever the
	// host ran slow; at 120 req/s they stayed within about 12%.
	serveRate = 120
	// serveGPUs is the GPUs per node of every shape.
	serveGPUs = 4
	// serveWorkers bounds both the service's workers and the client's
	// connections.
	serveWorkers = 2
	// serveCacheEntries bounds the plan cache below the catalog size.
	serveCacheEntries = 48
	serveBufferBytes  = 4 << 20
	serveTenants      = 4
	// serveLimit is the latency limit of goodput, from a request's due
	// time to its complete response: about three times the p99 latency
	// of an unloaded run (15-19 ms on a 2-vCPU host), so goodput drops
	// once the slowest few per cent of requests get about three times
	// slower.
	serveLimit = 50 * time.Millisecond
	// serveZipf is the Zipf exponent of key popularity. It is a choice,
	// not a measurement: it puts most traffic on plans the cache holds
	// and leaves a long tail of plans it cannot.
	serveZipf = 1.1
	// serveWarmKeys is how many of the hottest plans set-up compiles.
	serveWarmKeys = serveCacheEntries
	// serveSetups is how many set-ups setup_s takes the median of. A
	// set-up takes about 0.1 s, and single set-ups vary by tens of per
	// cent.
	serveSetups = 25
)

var (
	serveAlgorithms = []string{"ring-allreduce", "ring-allgather", "tree-allreduce", "bruck-allgather"}
	serveNodes      = []int{1, 2, 4}
	serveFabrics    = []string{"flat", "rail"}
	serveBackends   = []string{"resccl", "nccl", "msccl"}
	serveTiers      = []string{"LL", "Simple"}
	// serveEndpoints and their shares of each plan key's traffic. The
	// shares are a choice, not a measurement: compiles are the most
	// frequent request, analyses the least.
	serveEndpoints = []string{"compile", "simulate", "analyze"}
	serveShares    = []float64{0.5, 0.3, 0.2}
)

// planKey names one plan the service can compile.
type planKey struct {
	algo    string
	nodes   int
	fabric  string
	backend string
	tier    string
}

// serveKey is one request key: an endpoint on a plan.
type serveKey struct {
	endpoint string
	plan     planKey
}

func (k serveKey) String() string {
	p := k.plan
	return fmt.Sprintf("%s/%s/%dx%d/%s/%s/%s", k.endpoint, p.algo, p.nodes, serveGPUs, p.fabric, p.backend, p.tier)
}

// serveCatalog returns every request key, most popular first. The
// popularity order is a fixed shuffle of the key set, independent of
// the run's seed.
func serveCatalog() []serveKey {
	var plans []planKey
	for _, a := range serveAlgorithms {
		for _, n := range serveNodes {
			for _, f := range serveFabrics {
				for _, b := range serveBackends {
					for _, t := range serveTiers {
						plans = append(plans, planKey{a, n, f, b, t})
					}
				}
			}
		}
	}
	rand.New(rand.NewSource(7)).Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	var keys []serveKey
	for _, p := range plans {
		for _, e := range serveEndpoints {
			keys = append(keys, serveKey{e, p})
		}
	}
	return keys
}

// serveRequests returns the run's request multiset: n requests
// apportioned to the catalog by Zipf popularity (plan rank) times the
// endpoint's share, by largest remainder. It depends only on n.
func serveRequests(n int) []serveKey {
	keys := serveCatalog()
	w := make([]float64, len(keys))
	total := 0.0
	for i := range keys {
		rank := i / len(serveEndpoints)
		w[i] = serveShares[i%len(serveEndpoints)] / math.Pow(float64(rank+1), serveZipf)
		total += w[i]
	}
	counts := make([]int, len(keys))
	type rem struct {
		i int
		r float64
	}
	var rems []rem
	assigned := 0
	for i := range keys {
		x := float64(n) * w[i] / total
		counts[i] = int(x)
		assigned += counts[i]
		rems = append(rems, rem{i, x - float64(counts[i])})
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for j := 0; assigned < n; j++ {
		counts[rems[j].i]++
		assigned++
	}
	var out []serveKey
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, keys[i])
		}
	}
	return out
}

// serveArrival is one request of the open loop.
type serveArrival struct {
	key    serveKey
	due    time.Duration // offset from the loop's start
	tenant string
}

// serveSchedule orders the run's requests and draws their arrival
// times and tenants from the seed. n Poisson arrivals over a window,
// conditioned on their count, are n uniform times, sorted.
func serveSchedule(seed int64, seconds time.Duration) []serveArrival {
	reqs := serveRequests(int(seconds.Seconds() * serveRate))
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	dues := make([]float64, len(reqs))
	for i := range dues {
		dues[i] = rng.Float64() * float64(seconds)
	}
	sort.Float64s(dues)
	out := make([]serveArrival, len(reqs))
	for i, k := range reqs {
		out[i] = serveArrival{key: k, due: time.Duration(dues[i]), tenant: fmt.Sprintf("t%d", rng.Intn(serveTenants))}
	}
	return out
}

func (p planKey) request(tenant string) serve.CompileRequest {
	return serve.CompileRequest{Tenant: tenant, Backend: p.backend, Algorithm: p.algo,
		Nodes: p.nodes, GPUsPerNode: serveGPUs, Fabric: p.fabric, Protocol: p.tier}
}

func (k serveKey) body(tenant string) ([]byte, error) {
	req := k.plan.request(tenant)
	switch k.endpoint {
	case "simulate":
		return json.Marshal(serve.SimulateRequest{CompileRequest: req, BufferBytes: serveBufferBytes})
	case "analyze":
		return json.Marshal(serve.AnalyzeRequest{CompileRequest: req, BufferBytes: serveBufferBytes})
	default:
		return json.Marshal(req)
	}
}

// serveHandled is what the server-side middleware saw of one request.
type serveHandled struct {
	entered, left time.Time
}

// serveState is one running service behind a local HTTP server.
type serveState struct {
	svc    *serve.Service
	srv    *http.Server
	done   chan struct{}
	url    string
	client *http.Client

	mu      sync.Mutex // guards handled, written by the server's goroutines
	handled []serveHandled
}

func serveSetup(maxRequests int) func() (*serveState, error) {
	return func() (*serveState, error) {
		s := &serveState{
			svc: serve.New(serve.Config{
				Workers:     serveWorkers,
				CacheConfig: backend.CacheConfig{MaxEntries: serveCacheEntries, Shards: 4},
			}),
			done:    make(chan struct{}),
			handled: make([]serveHandled, maxRequests),
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		inner := serve.Handler(s.svc)
		s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.Atoi(r.Header.Get("X-Request-Index"))
			if err != nil || id < 0 || id >= len(s.handled) {
				inner.ServeHTTP(w, r)
				return
			}
			entered := time.Now()
			inner.ServeHTTP(w, r)
			left := time.Now()
			s.mu.Lock()
			s.handled[id] = serveHandled{entered, left}
			s.mu.Unlock()
		})}
		go func() {
			defer close(s.done)
			_ = s.srv.Serve(ln) // returns http.ErrServerClosed on shutdown
		}()
		s.url = "http://" + ln.Addr().String()
		s.client = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: serveWorkers, MaxIdleConnsPerHost: serveWorkers,
		}}
		// Fill the cache with the hottest plans.
		catalog := serveCatalog()
		for i := 0; i < serveWarmKeys; i++ {
			k := serveKey{"compile", catalog[i*len(serveEndpoints)].plan}
			if _, _, err := s.send(k, "warm", -1); err != nil {
				s.close()
				return nil, fmt.Errorf("warm-up %v: %w", k, err)
			}
		}
		return s, nil
	}
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // a shutdown timeout leaves nothing to undo
	<-s.done
	_ = s.svc.Drain(ctx)
	s.client.CloseIdleConnections()
}

// send posts one request and returns the HTTP status and body.
func (s *serveState) send(k serveKey, tenant string, id int) (int, []byte, error) {
	body, err := k.body(tenant)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/"+k.endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set("X-Request-Index", strconv.Itoa(id))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveReply is what the open loop keeps of one response.
type serveReply struct {
	status     int
	err        error
	sent, done time.Time
	completion float64 // simulate: completion_us
	certHash   string  // analyze: certificate hash
	vetClean   bool
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	arrivals := serveSchedule(cfg.seed, cfg.seconds)
	setup, s, err := timeSetups(serveSetups, serveSetup(len(arrivals)), (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newOutcome()

	replies := make([]serveReply, len(arrivals))
	cfg.drift.report("before")
	heap := startHeapSampler()
	b0, _ := allocCounters()
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a serveArrival) {
			defer wg.Done()
			r := &replies[i]
			r.sent = time.Now()
			var data []byte
			r.status, data, r.err = s.send(a.key, a.tenant, i)
			r.done = time.Now()
			if r.err == nil && r.status == http.StatusOK {
				r.err = r.decode(a.key.endpoint, data)
			}
		}(i, a)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b1, _ := allocCounters()
	live := heap.liveMB()
	cfg.drift.report("after")

	s.mu.Lock()
	handled := append([]serveHandled(nil), s.handled...)
	s.mu.Unlock()
	lat := &latencies{tailQ: 0.99}
	good := 0
	var waits, late []float64
	exec := map[string][]float64{}
	for i, r := range replies {
		out.attempted++
		due := start.Add(arrivals[i].due)
		if r.err != nil || r.status != http.StatusOK || (arrivals[i].key.endpoint == "compile" && !r.vetClean) {
			out.failed++
			// A failure counts as missing the latency limit.
			lat.add(max(r.done.Sub(due), serveLimit))
			continue
		}
		d := r.done.Sub(due)
		lat.add(d)
		if d <= serveLimit {
			good++
		}
		late = append(late, ms(r.sent.Sub(due)))
		if h := handled[i]; !h.entered.IsZero() {
			waits = append(waits, ms(h.entered.Sub(due)))
			exec[arrivals[i].key.endpoint] = append(exec[arrivals[i].key.endpoint], ms(h.left.Sub(h.entered)))
		}
	}
	out.e2e["setup_s"] = setup
	out.e2e["op_p50_ms"] = lat.p50()
	out.e2e["op_tail_ms"] = lat.tail()
	out.e2e["ops_per_s"] = float64(good) / elapsed.Seconds()
	out.e2e["alloc_mb_per_op"] = float64(b1-b0) / (1 << 20) / float64(len(arrivals))
	out.e2e["live_heap_mb"] = live

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		st := s.svc.CacheStats()
		out.layer["backend.hit_ratio"] = st.HitRate()
		out.layer["backend.evictions"] = float64(st.Evictions)
		out.layer["serve.wait_p50_ms"] = median(waits)
		out.layer["serve.wait_p99_ms"] = quantile(waits, 0.99)
		for e, xs := range exec {
			out.layer["serve.exec_ms."+e] = median(xs)
		}
		shed := 0
		for _, r := range replies {
			if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
				shed++
			}
		}
		out.layer["serve.shed"] = float64(shed)
		out.layer["serve.gen_late_ms"] = quantile(late, 0.99)
	}

	// Re-check every simulate and analyze response against direct calls
	// into the layers, once per distinct key; the same pass yields the
	// plan-quality metrics.
	q, bad, err := serveCheck(tr, arrivals, replies)
	if err != nil {
		return nil, err
	}
	out.failed += bad
	for k, v := range q {
		out.e2e[k] = v
	}
	out.tracer = tr
	return out, nil
}

func (r *serveReply) decode(endpoint string, data []byte) error {
	switch endpoint {
	case "simulate":
		var resp serve.SimulateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		r.completion = resp.CompletionUS
	case "analyze":
		var resp serve.AnalyzeResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		if resp.Certificate == nil {
			return fmt.Errorf("analyze response without a certificate")
		}
		r.certHash = resp.Certificate.Hash
	default:
		var resp serve.CompileResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return err
		}
		r.vetClean = resp.VetClean
	}
	return nil
}

// direct rebuilds what the service compiles for a plan key.
func (p planKey) direct() (backend.Backend, backend.Request, error) {
	var b backend.Backend
	switch p.backend {
	case "nccl":
		b = backend.NewNCCL()
	case "msccl":
		b = backend.NewMSCCL()
	default:
		b = backend.NewResCCL()
	}
	algo, err := expert.Build(p.algo, p.nodes*serveGPUs)
	if err != nil {
		return nil, backend.Request{}, err
	}
	var tp *topo.Topology
	if p.fabric == "rail" {
		tp = topo.NewRail(p.nodes, serveGPUs, topo.A100(), 2)
	} else {
		tp = topo.New(p.nodes, serveGPUs, topo.A100())
	}
	proto, err := ir.ParseProtocol(p.tier)
	if err != nil {
		return nil, backend.Request{}, err
	}
	return b, backend.Request{Algo: algo, Topo: tp, Protocol: proto}, nil
}

// serveExpect is the direct result for one simulate or analyze key.
type serveExpect struct {
	completion float64
	certHash   string
}

// serveCheck computes, for every distinct simulate and analyze key of
// the run, the result of calling the layers directly, counts responses
// that disagree, and derives the plan-quality metrics from the direct
// results. It depends only on the request multiset, not on the seed.
func serveCheck(tr *tracer, arrivals []serveArrival, replies []serveReply) (map[string]float64, int, error) {
	expect := map[serveKey]serveExpect{}
	var keys []serveKey
	for _, a := range arrivals {
		if _, ok := expect[a.key]; !ok && a.key.endpoint != "compile" {
			expect[a.key] = serveExpect{}
			keys = append(keys, a.key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var comm, gap, tbs, idle []float64
	for _, k := range keys {
		b, req, err := k.plan.direct()
		if err != nil {
			return nil, 0, err
		}
		root := tr.root()
		var plan *backend.Plan
		if err := tr.call(root, "backend.miss", func() error {
			plan, err = b.Compile(context.Background(), req)
			return err
		}); err != nil {
			return nil, 0, err
		}
		var e serveExpect
		if k.endpoint == "simulate" {
			var res *sim.Result
			if err := tr.call(root, "sim.run", func() error {
				res, err = sim.Run(sim.Config{Topo: req.Topo, Kernel: plan.Kernel, BufferBytes: serveBufferBytes, ChunkBytes: 1 << 20})
				return err
			}); err != nil {
				return nil, 0, err
			}
			e.completion = res.Completion * 1e6
			u := trace.Analyze(plan.Kernel, res, plan.Backend)
			comm = append(comm, res.Completion*1e3)
			tbs = append(tbs, float64(u.TBs))
			idle = append(idle, u.AvgIdle)
		} else {
			opts := cert.Options{BufferBytes: serveBufferBytes}
			if err := tr.call(root, "analyze.full", func() error {
				rep, err := analyze.Plan(plan.Kernel, analyze.Options{})
				if err == nil {
					rep.Attach(plan.Kernel.Graph, cert.BudgetLints(plan.Kernel, req.Topo, opts)...)
				}
				return err
			}); err != nil {
				return nil, 0, err
			}
			var c *cert.Certificate
			if err := tr.call(root, "cert.certify", func() error {
				c, err = cert.Certify(plan.Kernel, req.Topo, opts)
				return err
			}); err != nil {
				return nil, 0, err
			}
			e.certHash = c.Hash
			gap = append(gap, c.GapPct)
		}
		tr.finish(root)
		expect[k] = e
	}
	bad := 0
	for i, r := range replies {
		k := arrivals[i].key
		if r.err != nil || r.status != http.StatusOK || k.endpoint == "compile" {
			continue
		}
		if e := expect[k]; r.completion != e.completion || r.certHash != e.certHash {
			fmt.Fprintf(os.Stderr, "perfbench: %v: response disagrees with the direct layer calls\n", k)
			bad++
		}
	}
	return map[string]float64{
		"sim_comm_ms": mean(comm), "gap_pct": mean(gap), "tbs_per_rank": mean(tbs), "idle_ratio": mean(idle),
	}, bad, nil
}
