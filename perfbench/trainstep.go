package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"github.com/resccl/resccl"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/tune"
	"github.com/resccl/resccl/internal/verify"
)

// train-step: one caller replays a data-parallel plus ZeRO training
// step through an autotuned 2×8 A100 Communicator, in a closed loop.

// trainBuckets is the number of gradient buckets per step. It is odd so
// that the median of the step's 3×trainBuckets operations falls inside
// one operation's sample cloud rather than between two.
const trainBuckets = 25

const trainChunkBytes = 1 << 20 // the Communicator's default chunk

// trainSetups is how many set-ups setup_s takes the median of; each
// runs the full autotune sweep, two seconds or more. Within one
// process single set-ups range over ±15% on a 2-vCPU host.
const trainSetups = 7

type trainOp struct {
	op    ir.OpType
	bytes int64
}

func (o trainOp) String() string { return fmt.Sprintf("%v/%d", o.op, o.bytes) }

// trainStep returns one step's operations. Bucket sizes lie on a fixed
// log grid from 64 KiB to 256 MiB; each bucket is all-gathered (ZeRO
// parameters), reduce-scattered (ZeRO gradients) and all-reduced (the
// replicated data-parallel part).
func trainStep() []trainOp {
	var ops []trainOp
	for i := 0; i < trainBuckets; i++ {
		f := float64(i) / float64(trainBuckets-1)
		b := int64(math.Round(float64(64<<10)*math.Pow(4096, f)/4096)) * 4096
		for _, op := range []ir.OpType{ir.OpAllGather, ir.OpReduceScatter, ir.OpAllReduce} {
			ops = append(ops, trainOp{op: op, bytes: b})
		}
	}
	return ops
}

// trainOrder returns a step's operations in the order the seed draws:
// the seed permutes a step, never changes its contents.
func trainOrder(rng *rand.Rand, step []trainOp) []trainOp {
	out := append([]trainOp(nil), step...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// trainExpect is what one operation must produce, fixed at set-up.
type trainExpect struct {
	name       string // Run.Algorithm()
	proto      ir.Protocol
	completion time.Duration
	tbs        int
	idle       float64
	req        backend.Request
}

type trainState struct {
	tp     *topo.Topology
	comm   *resccl.Communicator
	table  *tune.Table
	hash   string
	expect map[trainOp]*trainExpect
	// warmFailed counts warm-up calls that disagreed with the table.
	warmFailed int
}

func call(comm *resccl.Communicator, o trainOp) (*resccl.Run, error) {
	switch o.op {
	case ir.OpAllGather:
		return comm.AllGather(o.bytes)
	case ir.OpReduceScatter:
		return comm.ReduceScatter(o.bytes)
	default:
		return comm.AllReduce(o.bytes)
	}
}

// buildNamed rebuilds a dispatched algorithm by name, as the
// Communicator does.
func buildNamed(name string, tp *topo.Topology) (*ir.Algorithm, error) {
	if synth.IsSketchName(name) {
		return synth.BuildNamed(name)
	}
	b, ok := expert.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	if b.NParams == 2 {
		return b.Build(tp.NNodes, tp.GPUsPerNode)
	}
	return b.Build(tp.NRanks())
}

// resolve decides an operation's algorithm and tier from the dispatch
// table, as the Communicator does.
func (s *trainState) resolve(o trainOp) (string, backend.Request, error) {
	if e, ok := s.table.Lookup(o.op, o.bytes); ok {
		algo, err := buildNamed(e.Algorithm, s.tp)
		if err != nil {
			return "", backend.Request{}, err
		}
		p, err := ir.ParseProtocol(e.Protocol)
		if err != nil {
			return "", backend.Request{}, err
		}
		return e.Algorithm, backend.Request{Algo: algo, Topo: s.tp, Protocol: p, TuneHash: s.hash}, nil
	}
	if o.op != ir.OpReduceScatter {
		return "", backend.Request{}, fmt.Errorf("the dispatch table has no entry for %v", o)
	}
	// The sweep does not tune ReduceScatter: the Communicator runs its
	// multi-node default.
	algo, err := expert.HMReduceScatter(s.tp.NNodes, s.tp.GPUsPerNode)
	if err != nil {
		return "", backend.Request{}, err
	}
	return algo.Name, backend.Request{Algo: algo, Topo: s.tp}, nil
}

// trainSetup builds and autotunes the Communicator, then warms it with
// one pass over the step, which compiles every plan and records each
// operation's expected outcome.
func trainSetup() (*trainState, error) {
	tp := resccl.NewTopology(2, 8, resccl.A100())
	comm, err := resccl.NewCommunicator(tp, resccl.WithAutotune())
	if err != nil {
		return nil, err
	}
	dt, err := comm.Tune()
	if err != nil {
		return nil, err
	}
	data, err := dt.MarshalJSON()
	if err != nil {
		return nil, err
	}
	table, err := tune.Load(data)
	if err != nil {
		return nil, err
	}
	s := &trainState{tp: tp, comm: comm, table: table, hash: dt.Hash(), expect: map[trainOp]*trainExpect{}}
	for _, o := range trainStep() {
		run, err := call(comm, o)
		if err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", o, err)
		}
		name, req, err := s.resolve(o)
		if err != nil {
			return nil, fmt.Errorf("resolve %v: %w", o, err)
		}
		if run.Algorithm() != name || run.Protocol != req.Protocol {
			s.warmFailed++
		}
		u := run.Utilization()
		s.expect[o] = &trainExpect{name: name, proto: req.Protocol, completion: run.Completion,
			tbs: u.TBs, idle: u.AvgIdle, req: req}
	}
	return s, nil
}

func runTrainStep(cfg runConfig) (*outcome, error) {
	setup, s, err := timeSetups(trainSetups, trainSetup, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted, out.failed = len(s.expect), s.warmFailed
	var tr *tracer
	var cache *backend.Cache
	var be backend.Backend
	if cfg.trace {
		tr = newTracer()
		cache, be = backend.NewCache(), backend.NewResCCL()
		if err := traceTrainSetup(tr, s, cache, be); err != nil {
			return nil, err
		}
	}

	step := trainStep()
	rng := rand.New(rand.NewSource(cfg.seed))
	lat := &latencies{tailQ: 0.99}
	cfg.drift.report("before")
	heap := startHeapSampler()
	b0, _ := allocCounters()
	start := time.Now()
	deadline := start.Add(cfg.seconds)
	var busy time.Duration
	for time.Now().Before(deadline) {
		for _, o := range trainOrder(rng, step) {
			exp := s.expect[o]
			t0 := time.Now()
			run, err := call(s.comm, o)
			d := time.Since(t0)
			out.attempted++
			if err != nil || run.Algorithm() != exp.name || run.Protocol != exp.proto || run.Completion != exp.completion {
				out.failed++
				continue
			}
			lat.add(d)
			busy += d
			if tr != nil {
				if err := traceTrainOp(tr, s, cache, be, o); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: traced call: %v\n", err)
					out.failed++
				}
			}
		}
	}
	b1, _ := allocCounters()
	live := heap.liveMB()
	cfg.drift.report("after")

	ops := float64(len(lat.ms))
	out.e2e["setup_s"] = setup
	out.e2e["op_p50_ms"] = lat.p50()
	out.e2e["op_tail_ms"] = lat.tail()
	out.e2e["ops_per_s"] = ops / busy.Seconds()
	out.e2e["alloc_mb_per_op"] = float64(b1-b0) / (1 << 20) / ops
	out.e2e["live_heap_mb"] = live
	q, err := trainQuality(s, step)
	if err != nil {
		return nil, err
	}
	for k, v := range q {
		out.e2e[k] = v
	}
	if tr != nil {
		trainLayerMetrics(tr, out)
		out.tracer = tr
	}
	return out, nil
}

// trainQuality computes the plan-quality metrics of one step from the
// set-up's simulated outcomes. It depends only on the step's contents,
// so every seed reports the same values.
func trainQuality(s *trainState, step []trainOp) (map[string]float64, error) {
	be := backend.NewResCCL()
	var comm, gap, tbs, idle float64
	for _, o := range step {
		exp := s.expect[o]
		p, err := be.Compile(context.Background(), exp.req)
		if err != nil {
			return nil, err
		}
		c, err := cert.FromCompletion(p.Kernel, s.tp, cert.Options{BufferBytes: o.bytes, ChunkBytes: trainChunkBytes}, exp.completion.Seconds())
		if err != nil {
			return nil, err
		}
		comm += ms(exp.completion)
		gap += c.GapPct
		tbs += float64(exp.tbs)
		idle += exp.idle
	}
	n := float64(len(step))
	return map[string]float64{
		"sim_comm_ms": comm, "gap_pct": gap / n, "tbs_per_rank": tbs / n, "idle_ratio": idle / n,
	}, nil
}

// traceTrainSetup times the set-up layers the public path hides: the
// tuning sweep and both plan checkers on every plan of the step. It
// also fills the traced path's own plan cache.
func traceTrainSetup(tr *tracer, s *trainState, cache *backend.Cache, be backend.Backend) error {
	ctx := context.Background()
	if err := tr.call(-1, "tune.sweep", func() error {
		_, err := tune.Sweep(ctx, s.tp, tune.Options{Parallel: true})
		return err
	}); err != nil {
		return err
	}
	for _, o := range trainStep() {
		req := s.expect[o].req
		algo := req.Algo
		if err := tr.call(-1, "collective.check", func() error { return collective.Check(algo) }); err != nil {
			return err
		}
		if err := tr.call(-1, "verify.check", func() error {
			_, err := verify.Check(algo.Op, algo.NRanks, algo.NChunks, nil, algo.Sorted(), verify.Expect{})
			return err
		}); err != nil {
			return err
		}
		if _, _, err := cache.CompileNoted(ctx, be, req); err != nil {
			return err
		}
	}
	return nil
}

// traceTrainOp re-issues one operation as its sequence of layer calls
// and checks it reproduces the public call's simulated completion.
func traceTrainOp(tr *tracer, s *trainState, cache *backend.Cache, be backend.Backend, o trainOp) error {
	exp := s.expect[o]
	if err := tr.call(-1, "resccl.call", func() error { _, err := call(s.comm, o); return err }); err != nil {
		return err
	}
	root := tr.root()
	defer tr.finish(root)
	var algo *ir.Algorithm
	proto, hash := ir.ProtoAuto, ""
	name := ""
	if err := tr.call(root, "tune.lookup", func() error {
		if e, ok := s.table.Lookup(o.op, o.bytes); ok {
			name = e.Algorithm
			hash = s.hash
			var err error
			proto, err = ir.ParseProtocol(e.Protocol)
			return err
		}
		return nil
	}); err != nil {
		return err
	}
	if err := tr.call(root, "expert.build", func() error {
		var err error
		if name != "" {
			algo, err = buildNamed(name, s.tp)
		} else {
			algo = exp.req.Algo
		}
		return err
	}); err != nil {
		return err
	}
	var plan *backend.Plan
	if err := tr.call(root, "backend.hit", func() error {
		var hit bool
		var err error
		plan, hit, err = cache.CompileNoted(context.Background(), be,
			backend.Request{Algo: algo, Topo: s.tp, Protocol: proto, TuneHash: hash})
		if err == nil && !hit {
			err = fmt.Errorf("%v: plan cache miss on the warm path", o)
		}
		return err
	}); err != nil {
		return err
	}
	var res *sim.Result
	if err := tr.call(root, "sim.run", func() error {
		var err error
		res, err = sim.Run(sim.Config{Topo: s.tp, Kernel: plan.Kernel, BufferBytes: o.bytes, ChunkBytes: trainChunkBytes})
		return err
	}); err != nil {
		return err
	}
	tr.count("sim.events", float64(res.Events))
	if err := tr.call(root, "trace.util", func() error {
		trace.Analyze(plan.Kernel, res, plan.Backend)
		return nil
	}); err != nil {
		return err
	}
	if got := time.Duration(res.Completion * float64(time.Second)); got != exp.completion {
		return fmt.Errorf("%v: traced completion %v, public %v", o, got, exp.completion)
	}
	return nil
}

func trainLayerMetrics(tr *tracer, out *outcome) {
	// glue: the public call's time that the layer calls do not explain.
	calls := tr.durations("resccl.call")
	covered := tr.childTime()
	var glue []float64
	n := 0
	for i, sp := range tr.spans {
		if sp.Name == "op" && n < len(calls) {
			glue = append(glue, calls[n]-ms(covered[i]))
			n++
		}
	}
	out.layer["resccl.glue_ms"] = median(glue)
	events := tr.counts["sim.events"]
	var simNS, ev float64
	for i, d := range tr.durations("sim.run") {
		simNS += d * 1e6
		ev += events[i]
	}
	if ev > 0 {
		out.layer["sim.ns_per_event"] = simNS / ev
	}
}
