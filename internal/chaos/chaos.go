// Package chaos is the property-based fault harness: a seeded sweep
// over random topologies × collectives × fault schedules (transient and
// permanent), asserting the system-level recovery contract on every
// case —
//
//   - the run completes on the simulated clock and the semantic
//     verifier (internal/verify) proves the transfers it ran, or
//   - it fails with a typed, actionable error (replan.ErrPartitioned,
//     replan.ErrUnrecoverable), and
//   - it never stalls (a simulator deadlock is a harness failure) and
//     never silently corrupts (exec.ErrIncorrect is one too).
//
// Everything derives from Config.Seed, so a failing case replays
// exactly by number.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/replan"
	"github.com/resccl/resccl/internal/topo"
)

// Config parameterises a sweep.
type Config struct {
	// Seed drives every random choice; equal configs replay equal cases.
	Seed int64
	// Cases is the number of cases to run.
	Cases int
}

// Failure records one violated contract.
type Failure struct {
	Case int
	Desc string
	Err  error
}

// Report summarises a sweep.
type Report struct {
	Cases int
	// Verified counts runs that completed with the verifier passing;
	// Replanned is the subset that recovered through at least one
	// replan. Degraded counts runs that fell back to sequential
	// sub-pipelines.
	Verified, Replanned, Degraded int
	// Partitioned and Unrecoverable count typed, acceptable aborts.
	Partitioned, Unrecoverable int
	// Failures lists contract violations: stalls, untyped errors,
	// unverified completions. Empty on a healthy system.
	Failures []Failure
}

// Run executes the sweep. It never returns an error itself: violations
// are data (Report.Failures), so a test can print every one.
func Run(cfg Config) Report {
	rep := Report{Cases: cfg.Cases}
	for i := 0; i < cfg.Cases; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b9))
		desc, rec, err := runCase(rng)
		switch {
		case err == nil:
			rep.Verified++
			if rec != nil && rec.Replan != nil {
				rep.Replanned++
			}
			if rec != nil && len(rec.DegradedSubs) > 0 {
				rep.Degraded++
			}
		case errors.Is(err, replan.ErrPartitioned):
			rep.Partitioned++
		case errors.Is(err, replan.ErrUnrecoverable):
			rep.Unrecoverable++
		case errors.Is(err, exec.ErrIncorrect):
			rep.Failures = append(rep.Failures, Failure{Case: i, Desc: desc,
				Err: fmt.Errorf("completed but failed verification: %w", err)})
		case errors.Is(err, kernel.ErrDeadlock):
			rep.Failures = append(rep.Failures, Failure{Case: i, Desc: desc,
				Err: fmt.Errorf("stall: %w", err)})
		default:
			rep.Failures = append(rep.Failures, Failure{Case: i, Desc: desc,
				Err: fmt.Errorf("untyped failure: %w", err)})
		}
	}
	return rep
}

// shape is one topology template.
type shape struct {
	nodes, gpus, nics int
	name              string
}

var shapes = []shape{
	{1, 4, 0, "1x4"},
	{1, 8, 0, "1x8"},
	{2, 2, 2, "2x2/nic-per-gpu"},
	{2, 2, 0, "2x2/shared-nic"},
	{2, 4, 4, "2x4/nic-per-gpu"},
}

// runCase builds and executes one random case. The returned desc names
// the scenario for failure reports.
func runCase(rng *rand.Rand) (string, *replan.Recovery, error) {
	sh := shapes[rng.Intn(len(shapes))]
	var opts []topo.Option
	if sh.nics > 0 {
		opts = append(opts, topo.WithNICs(sh.nics))
	}
	tp := topo.New(sh.nodes, sh.gpus, topo.A100(), opts...)
	n := tp.NRanks()

	algo, err := randomAlgo(rng, sh, n)
	if err != nil {
		return sh.name, nil, fmt.Errorf("chaos: plan generation: %w", err)
	}
	sched := randomFaults(rng, tp)
	nMB := 1 + rng.Intn(2)
	// Random protocol tier, auto included: replanned cases must carry
	// every tier through the topo.Carve recompile, and auto must stay
	// the identity. Drawn last so earlier seeds' draws keep their
	// historical values within a case.
	proto := ir.Protocol(rng.Intn(4))
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp, Protocol: proto})
	if err != nil {
		return sh.name, nil, fmt.Errorf("chaos: compile %s on %s: %w", algo.Name, sh.name, err)
	}

	desc := fmt.Sprintf("%s %s proto=%s faults=%d", sh.name, algo.Name, plan.Kernel.Protocol, len(sched.Events))
	out := exec.Outcome{Plan: plan}
	err = exec.Execute(exec.Request{Topo: tp, Faults: sched}, &out, nMB)
	return desc, out.Recovery, err
}

func randomAlgo(rng *rand.Rand, sh shape, n int) (*ir.Algorithm, error) {
	kind := rng.Intn(7)
	switch kind {
	case 0:
		return expert.MeshAllReduce(n)
	case 1:
		return expert.RingAllGather(n)
	case 2:
		return expert.RingReduceScatter(n)
	case 3:
		return expert.BinomialBroadcast(n)
	case 4:
		return expert.DirectAllToAll(n)
	case 5:
		if sh.nodes > 1 {
			return expert.HMAllReduce(sh.nodes, sh.gpus)
		}
		return expert.RingAllReduce(n)
	default:
		if sh.nodes > 1 {
			return expert.HMAllGather(sh.nodes, sh.gpus)
		}
		return expert.TreeAllReduce(n)
	}
}

// randomFaults mixes transient windows with permanent failures. Roughly
// a third of cases are transient-only, half add dead links, the rest
// kill a rank.
func randomFaults(rng *rand.Rand, tp *topo.Topology) *fault.Schedule {
	s := fault.Generate(tp, fault.Params{
		Seed:    rng.Int63(),
		N:       rng.Intn(4),
		Horizon: 1e-3,
	})
	switch roll := rng.Float64(); {
	case roll < 0.35:
		// transient-only
	case roll < 0.85:
		for k := 1 + rng.Intn(2); k > 0; k-- {
			s.Events = append(s.Events, fault.LinkOut(randPathResource(rng, tp), 0))
		}
	default:
		s.Events = append(s.Events, fault.RankOut(ir.Rank(rng.Intn(tp.NRanks())), 0))
	}
	return s
}

// randPathResource picks a resource from a random rank pair's path, so
// permanent failures always land on links collectives can traverse.
func randPathResource(rng *rand.Rand, tp *topo.Topology) topo.ResourceID {
	n := tp.NRanks()
	src := ir.Rank(rng.Intn(n))
	dst := ir.Rank(rng.Intn(n - 1))
	if dst >= src {
		dst++
	}
	res := tp.Path(src, dst).Resources
	return res[rng.Intn(len(res))]
}
