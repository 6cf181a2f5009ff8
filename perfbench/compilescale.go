package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
)

// compile-scale: one caller compiles hier-allreduce on a 64×8 rail
// fabric (512 ranks) over and over, cold, with no plan cache: the
// compile pipeline at scale, with no simulation while timing.

const (
	scaleNodes, scaleGPUs, scaleSpines = 64, 8, 2
	// scaleSimBytes is the payload of the plan-quality simulation run
	// after timing.
	scaleSimBytes = 64 << 20
	// scaleSetups is how many set-ups setup_s takes the median of.
	scaleSetups = 25
)

// scaleJob is the one job every operation compiles. The seed does not
// change it.
func scaleJob() (*topo.Topology, *ir.Algorithm, error) {
	tp := topo.NewRail(scaleNodes, scaleGPUs, topo.A100(), scaleSpines)
	algo, err := synth.HierAllReduce(scaleNodes, scaleGPUs)
	return tp, algo, err
}

type scaleState struct {
	tp   *topo.Topology
	algo *ir.Algorithm
	ref  *backend.Plan
}

// compileOnce is one operation: a cold compile, which includes the
// backend's vet, on a fresh backend.
func (s *scaleState) compileOnce() (*backend.Plan, error) {
	return backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: s.algo, Topo: s.tp})
}

// scaleSetup builds the fabric and the algorithm and compiles the
// reference plan the operations must reproduce.
func scaleSetup() (*scaleState, error) {
	tp, algo, err := scaleJob()
	if err != nil {
		return nil, err
	}
	s := &scaleState{tp: tp, algo: algo}
	s.ref, err = s.compileOnce()
	return s, err
}

// checkPlan is the per-operation output check: a valid kernel with a
// clean vet, the same shape as the reference plan.
func (s *scaleState) checkPlan(p *backend.Plan) error {
	if err := kernel.Validate(p.Kernel); err != nil {
		return err
	}
	if p.Vet == nil || !p.Vet.Clean() {
		return fmt.Errorf("vet not clean: %v", p.Vet)
	}
	if p.Kernel.NTBs() != s.ref.Kernel.NTBs() || p.Kernel.TotalSlots() != s.ref.Kernel.TotalSlots() {
		return fmt.Errorf("kernel shape %d TBs/%d slots, reference %d/%d",
			p.Kernel.NTBs(), p.Kernel.TotalSlots(), s.ref.Kernel.NTBs(), s.ref.Kernel.TotalSlots())
	}
	return nil
}

func runCompileScale(cfg runConfig) (*outcome, error) {
	setup, s, err := timeSetups(scaleSetups, scaleSetup, nil)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted = 1
	if err := s.checkPlan(s.ref); err != nil {
		out.failed++
	}
	var tr *tracer
	var refHash [sha256.Size]byte
	if cfg.trace {
		tr = newTracer()
		if refHash, err = saveHash(s.ref.Kernel, s.tp); err != nil {
			return nil, err
		}
	}

	// The seed has nothing to reorder: every operation is the same job.
	lat := &latencies{tailQ: 0.90}
	cfg.drift.report("before")
	heap := startHeapSampler()
	var allocated uint64
	var busy time.Duration
	deadline := time.Now().Add(cfg.seconds)
	for time.Now().Before(deadline) {
		b0, _ := allocCounters()
		t0 := time.Now()
		p, err := s.compileOnce()
		d := time.Since(t0)
		b1, _ := allocCounters()
		out.attempted++
		if err == nil {
			err = s.checkPlan(p)
		}
		if err != nil {
			out.failed++
			continue
		}
		lat.add(d)
		busy += d
		allocated += b1 - b0
		if tr != nil {
			if err := traceScaleOp(tr, s, refHash); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced compile: %v\n", err)
				out.failed++
			}
		}
	}
	live := heap.liveMB()
	cfg.drift.report("after")

	ops := float64(len(lat.ms))
	out.e2e["setup_s"] = setup
	out.e2e["op_p50_ms"] = lat.p50()
	out.e2e["op_tail_ms"] = lat.tail()
	out.e2e["ops_per_s"] = ops / busy.Seconds()
	out.e2e["alloc_mb_per_op"] = float64(allocated) / (1 << 20) / ops
	out.e2e["live_heap_mb"] = live
	q, err := scaleQuality(s)
	if err != nil {
		return nil, err
	}
	for k, v := range q {
		out.e2e[k] = v
	}
	out.tracer = tr
	return out, nil
}

// scaleQuality simulates the reference plan once, after timing, and
// derives the plan-quality metrics from it.
func scaleQuality(s *scaleState) (map[string]float64, error) {
	k := s.ref.Kernel
	res, err := sim.Run(sim.Config{Topo: s.tp, Kernel: k, BufferBytes: scaleSimBytes, ChunkBytes: 1 << 20})
	if err != nil {
		return nil, err
	}
	c, err := cert.FromCompletion(k, s.tp, cert.Options{BufferBytes: scaleSimBytes}, res.Completion)
	if err != nil {
		return nil, err
	}
	u := trace.Analyze(k, res, s.ref.Backend)
	return map[string]float64{
		"sim_comm_ms": res.Completion * 1e3, "gap_pct": c.GapPct,
		"tbs_per_rank": float64(u.TBs), "idle_ratio": u.AvgIdle,
	}, nil
}

func saveHash(k *kernel.Kernel, tp *topo.Topology) ([sha256.Size]byte, error) {
	var buf bytes.Buffer
	if err := kernel.Save(k, tp, &buf); err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// traceScaleOp re-issues one compile as its sequence of layer calls, in
// the order backend.Compile makes them, and checks that the kernel it
// lowers saves to the same bytes as the public compile's.
func traceScaleOp(tr *tracer, s *scaleState, refHash [sha256.Size]byte) error {
	root := tr.root()
	var (
		g   *dag.Graph
		p   *sched.Pipeline
		a   *talloc.Assignment
		k   *kernel.Kernel
		err error
	)
	opts := core.Options{}
	const chunkBytes, windowMB = 1 << 20, 8 // core.Options defaults
	steps := []struct {
		name string
		fn   func() error
	}{
		{"collective.check", func() error { return collective.Check(s.algo) }},
		{"dag.build", func() error { g, err = dag.Build(s.algo, s.tp); return err }},
		{"sched.hpds", func() error { p, err = sched.Schedule(g, opts.Policy); return err }},
		{"talloc.alloc", func() error {
			a = talloc.StateBased(p, talloc.EstimateWindows(p, chunkBytes, windowMB))
			return nil
		}},
		{"kernel.lower", func() error {
			k, err = kernel.Generate(p, a)
			if err == nil {
				k.Mode, k.Protocol = opts.Mode, opts.Protocol
			}
			return err
		}},
		{"analyze.vet", func() error {
			rep, err := analyze.Plan(k, analyze.Options{Checks: analyze.CheckQuick})
			if err != nil {
				return err
			}
			rep.Attach(k.Graph, analyze.BudgetLints(k, s.tp, 0, 0, analyze.Budget{})...)
			return rep.Err()
		}},
	}
	for _, st := range steps {
		if err := tr.call(root, st.name, st.fn); err != nil {
			tr.finish(root)
			return fmt.Errorf("%s: %w", st.name, err)
		}
	}
	tr.finish(root)
	tr.count("dag.tasks", float64(len(g.Tasks)))
	tr.count("sched.subs", float64(p.NSubs()))
	tr.count("talloc.tbs", float64(a.NTBs()))
	tr.count("kernel.slots", float64(k.TotalSlots()))
	h, err := saveHash(k, s.tp)
	if err != nil {
		return err
	}
	if h != refHash {
		return fmt.Errorf("traced kernel saves to different bytes than backend.Compile's")
	}
	return nil
}
