// Package exec is the one execution path for a collective call: it
// resolves the call's protocol tier and chunk size, compiles the plan
// through the plan cache and simulates it. The Communicator, the plan
// service, the autotuner's sweep and its sketch search all run their
// calls through it, so the same request gets the same answer from each
// of them. The sweep and the search also share one bound-pruning rule,
// Prune.
package exec

import (
	"context"
	"fmt"
	"sync"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/replan"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
)

// Request says where and how calls run. A nil Cache compiles
// directly; a nil Keys hashes every request.
type Request struct {
	Backend backend.Backend
	Cache   *backend.Cache
	Keys    *Keys
	Topo    *topo.Topology
	// TuneHash is backend.Request.TuneHash: the dispatch-table
	// generation that picked the calls' algorithms, if one did.
	TuneHash string
	// ChunkBytes is the simulated chunk size; zero or negative means
	// simcost.DefaultChunkBytes.
	ChunkBytes int64
	// Faults is injected into every simulation; nil runs clean.
	Faults         *fault.Schedule
	RecordTimeline bool
	// Trace receives compile stages on cache misses and one span per
	// simulation; Metrics receives plan-cache and simulator counters and
	// link-busy gauges. Either may be nil.
	Trace   *obs.Trace
	Metrics *obs.Metrics
}

// Call is one collective.
type Call struct {
	Algo *ir.Algorithm
	// BufferBytes is the per-rank payload. Zero means the call has no
	// size: it can only be compiled.
	BufferBytes int64
	// Protocol is the requested tier. A forced tier passes through. Auto
	// becomes the size-based choice real NCCL's tuning table would make
	// (sim.SelectProtocol) when the backend is a *backend.NCCL and the
	// call has a size, and stays auto otherwise, which the simulator
	// treats as Simple.
	Protocol ir.Protocol
	// Name is the name Request.Keys memoises the call's plan-cache key
	// under. Leave it empty for an algorithm the caller may change
	// between calls.
	Name string
}

// Outcome is what one call produced: its plan, its simulation (nil
// after Compile), whether the plan came from the cache, the tier it was
// compiled for, and how its simulation recovered from Request.Faults
// (nil for a clean run).
type Outcome struct {
	Plan     *backend.Plan
	Result   *sim.Result
	Hit      bool
	Protocol ir.Protocol
	Recovery *replan.Recovery
}

// Compile resolves the call's tier and compiles its plan through the
// cache.
func Compile(ctx context.Context, req Request, call Call) (Outcome, error) {
	out := Outcome{Protocol: call.Protocol}
	if _, nccl := req.Backend.(*backend.NCCL); nccl && call.BufferBytes > 0 && !call.Protocol.Forced() {
		out.Protocol = sim.SelectProtocol(req.Topo, call.Algo.Op, call.BufferBytes)
	}
	breq := backend.Request{Algo: call.Algo, Topo: req.Topo, Protocol: out.Protocol, TuneHash: req.TuneHash}
	var err error
	if key, ok := req.Keys.key(call.Name, req.Backend, breq); ok {
		out.Plan, out.Hit, err = req.Cache.CompileKeyed(ctx, req.Backend, breq, key)
	} else {
		out.Plan, out.Hit, err = req.Cache.CompileNoted(ctx, req.Backend, breq)
	}
	if err != nil {
		return Outcome{}, err
	}
	if out.Hit {
		req.Metrics.Add("plan_cache.hits", 1)
	} else {
		req.Metrics.Add("plan_cache.misses", 1)
		req.Trace.AddStages("compile", "compile/"+call.Algo.Name, out.Plan.Stages)
	}
	return out, nil
}

// Run compiles one or more calls, each with a size, and simulates them
// side by side on req.Topo: one call runs alone, several share the
// fabric. It returns one Outcome per call, in order; each Result's
// Completion is that call's own finish time.
func Run(ctx context.Context, req Request, calls ...Call) ([]Outcome, error) {
	outs := make([]Outcome, len(calls))
	for i, call := range calls {
		var err error
		if outs[i], err = Compile(ctx, req, call); err != nil {
			return nil, err
		}
	}
	if err := Simulate(req, calls, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// Simulate runs calls, compiled into outs, side by side on req.Topo
// under req.Faults, stores each call's Result (and, under faults, its
// Recovery) in its Outcome and counts the run into req.Metrics. A lone
// call takes sim.Run, which keeps its session off the heap, and is the
// only run that replans around permanent failures (simulateFaulted); a
// concurrent run under them fails with ErrConcurrentReplan.
func Simulate(req Request, calls []Call, outs []Outcome) (err error) {
	if req.ChunkBytes <= 0 {
		req.ChunkBytes = simcost.DefaultChunkBytes
	}
	if req.Trace != nil {
		name, attrs := fmt.Sprintf("sim/concurrent(%d)", len(calls)), []obs.Attr(nil)
		if p := outs[0].Plan; len(calls) == 1 {
			name, attrs = "sim/"+p.Algo.Name, []obs.Attr{{Key: "backend", Value: p.Backend}}
		}
		defer req.Trace.StartSpan("execute", name, attrs...).End()
	}
	if len(calls) == 1 {
		if !req.Faults.Empty() {
			err = simulateFaulted(req, calls[0], &outs[0])
		} else {
			outs[0].Result, err = sim.Run(sim.Config{Topo: req.Topo, Kernel: outs[0].Plan.Kernel, BufferBytes: calls[0].BufferBytes,
				ChunkBytes: req.ChunkBytes, RecordTimeline: req.RecordTimeline})
		}
		if err != nil {
			return err
		}
		count(req.Metrics, req.Topo, outs[0].Result)
		return nil
	}
	var analyses []*replan.Analysis
	if !req.Faults.Empty() {
		if res, ranks := req.Faults.PermanentFailures(); len(res)+len(ranks) > 0 {
			return ErrConcurrentReplan
		}
		analyses = make([]*replan.Analysis, len(calls))
	}
	sessions := make([]sim.Session, len(calls))
	for i, call := range calls {
		k := outs[i].Plan.Kernel
		if analyses != nil {
			analyses[i] = replan.Analyze(k, req.Faults)
			k = analyses[i].Kernel()
		}
		sessions[i] = sim.Session{Kernel: k, BufferBytes: call.BufferBytes, ChunkBytes: req.ChunkBytes}
	}
	mr, err := sim.RunConcurrent(sim.MultiConfig{Topo: req.Topo, Sessions: sessions, Faults: req.Faults, RecordTimeline: req.RecordTimeline})
	if err != nil {
		return err
	}
	for i, res := range mr.Sessions {
		outs[i].Result = res
		if analyses != nil {
			if outs[i].Recovery, err = analyses[i].Recover(res.Plan.NMicroBatches, res.Completion); err != nil {
				return err
			}
		}
	}
	count(req.Metrics, req.Topo, mr.Sessions...)
	return nil
}

// count adds one simulation on tp to m: the run, its events, each
// session's instances and the fabric's link-busy time. sessions are the
// run's results, which share its event count and link-busy slice.
func count(m *obs.Metrics, tp *topo.Topology, sessions ...*sim.Result) {
	m.Add("sim.runs", 1)
	m.Add("sim.events", int64(sessions[0].Events))
	for _, res := range sessions {
		m.Add("sim.instances", int64(res.Instances))
	}
	trace.LinkBusyGauges(m, tp, sessions[0].LinkBusy)
}

// Keys memoises plan-cache keys (backend.Fingerprint) for a caller that
// compiles the same named algorithms over and over on one backend and
// topology, so a warm call hashes nothing. The zero value is ready to
// use and safe for concurrent use.
type Keys struct {
	mu sync.Mutex
	m  map[keyRequest][32]byte
}

// keyRequest decides a named algorithm's key: the backend and topology
// are the memo owner's.
type keyRequest struct {
	name     string
	protocol ir.Protocol
	tuneHash string
}

// key returns breq's memoised plan-cache key, and false when the
// request is uncacheable or there is no memo to consult: k is nil or
// the call unnamed.
func (k *Keys) key(name string, b backend.Backend, breq backend.Request) ([32]byte, bool) {
	if k == nil || name == "" {
		return [32]byte{}, false
	}
	kr := keyRequest{name, breq.Protocol, breq.TuneHash}
	k.mu.Lock()
	defer k.mu.Unlock()
	if key, found := k.m[kr]; found {
		return key, true
	}
	key, ok := backend.Fingerprint(b, breq)
	if ok {
		if k.m == nil {
			k.m = make(map[keyRequest][32]byte)
		}
		k.m[kr] = key
	}
	return key, ok
}
