package sim

import (
	"context"
	"reflect"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/topo"
)

// compileAR compiles the hierarchical-mesh (or mesh) AllReduce for the
// shape on the ResCCL backend.
func compileAR(t *testing.T, tp *topo.Topology, nNodes, gpn int) *backend.Plan {
	t.Helper()
	algo, err := expert.HMAllReduce(nNodes, gpn)
	if nNodes == 1 {
		algo, err = expert.MeshAllReduce(gpn)
	}
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestZeroEventScheduleBitIdentical is the regression guard for the
// fault subsystem: attaching an empty (or nil) schedule must leave the
// whole Result bit-identical to the fault-free simulator.
func TestZeroEventScheduleBitIdentical(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	plan := compileAR(t, tp, 2, 4)
	base := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20, RecordTimeline: true}

	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []*fault.Schedule{nil, {}, {Seed: 9}} {
		cfg := base
		cfg.Faults = sched
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clean, got) {
			t.Fatalf("empty schedule %+v changed the Result: completion %v vs %v",
				sched, clean.Completion, got.Completion)
		}
	}
}

// TestFaultedRunDeterministic: a seeded non-empty schedule must give
// identical timings and identical applied-fault logs across runs.
func TestFaultedRunDeterministic(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	plan := compileAR(t, tp, 2, 4)
	clean, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.Generate(tp, fault.Params{
		Seed: 123, N: 12, Horizon: clean.Completion,
		MeanDuration: clean.Completion / 6, NTBs: len(plan.Kernel.TBs),
	})
	cfg := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20, Faults: sched}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two faulted runs differ: %v vs %v", a.Completion, b.Completion)
	}
	if len(a.Faults) == 0 {
		t.Fatalf("faulted run recorded no applied windows")
	}
}

// TestLinkDegradeLengthensRun: halving a NIC queue's capacity for the
// whole run must slow the collective; an outage must slow it further.
func TestLinkDegradeLengthensRun(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	plan := compileAR(t, tp, 2, 4)
	base := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	eg, in := tp.NICResources(0)
	window := 10 * clean.Completion

	deg := base
	deg.Faults = &fault.Schedule{Events: []fault.Event{
		fault.LinkDegrade(eg, 0, window, 0.5),
		fault.LinkDegrade(in, 0, window, 0.5),
	}}
	slow, err := Run(deg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Completion <= clean.Completion*1.01 {
		t.Fatalf("50%% NIC degrade did not slow the run: %v vs clean %v", slow.Completion, clean.Completion)
	}

	down := base
	down.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindNICFlap, Start: 0, Duration: clean.Completion / 2,
			Resources: []topo.ResourceID{eg, in}},
	}}
	worst, err := Run(down)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Completion <= clean.Completion*1.01 {
		t.Fatalf("NIC outage did not slow the run: %v vs clean %v", worst.Completion, clean.Completion)
	}
}

// TestLinkDownWindowRecovers: a brief outage early in the run must cost
// time, but far less than an outage spanning the whole run — flows
// crawl during the window and resume at full rate when it closes.
func TestLinkDownWindowRecovers(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	plan := compileAR(t, tp, 2, 4)
	base := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 64 << 20, ChunkBytes: 1 << 20}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	eg, in := tp.NICResources(0)
	short := base
	short.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.KindNICFlap, Start: 0, Duration: clean.Completion / 10,
			Resources: []topo.ResourceID{eg, in}},
	}}
	brief, err := Run(short)
	if err != nil {
		t.Fatal(err)
	}
	if brief.Completion <= clean.Completion {
		t.Fatalf("outage was free: %v vs clean %v", brief.Completion, clean.Completion)
	}
	// Recovery bound: losing one NIC for a tenth of the run must not
	// cost more than the whole window plus modest queueing spill.
	if brief.Completion > clean.Completion*2 {
		t.Fatalf("brief outage cost too much: %v vs clean %v — flows did not resume", brief.Completion, clean.Completion)
	}
}

// TestStragglerSlowsOnlyItsSession: in a two-session concurrent run on
// disjoint pair links (single node), a straggler TB of session 0 must
// lengthen session 0 and leave session 1's completion untouched.
func TestStragglerSlowsOnlyItsSession(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	plan := compileAR(t, tp, 1, 4)
	ses := Session{Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20}
	clean, err := RunConcurrent(MultiConfig{Topo: tp, Sessions: []Session{ses, ses}})
	if err != nil {
		t.Fatal(err)
	}
	sched := &fault.Schedule{Events: []fault.Event{
		fault.Straggler(0, 0, 10*clean.Completion, 4),
	}}
	faulted, err := RunConcurrent(MultiConfig{Topo: tp, Sessions: []Session{ses, ses}, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Sessions[0].Completion <= clean.Sessions[0].Completion*1.01 {
		t.Fatalf("straggler did not slow its session: %v vs %v",
			faulted.Sessions[0].Completion, clean.Sessions[0].Completion)
	}
	// Session 1 shares the fabric, so a slowed session 0 can only free
	// capacity — session 1 must not get slower.
	if faulted.Sessions[1].Completion > clean.Sessions[1].Completion*1.01 {
		t.Fatalf("straggler in session 0 slowed session 1: %v vs %v",
			faulted.Sessions[1].Completion, clean.Sessions[1].Completion)
	}
}

// TestStragglerLengthensOwnedPipelines: the straggling TB's own release
// moves out proportionally more than the fastest TB's.
func TestStragglerLengthensOwnedPipelines(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	plan := compileAR(t, tp, 1, 4)
	base := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	faulty := base
	faulty.Faults = &fault.Schedule{Events: []fault.Event{
		fault.Straggler(0, 0, 10*clean.Completion, 8),
	}}
	slow, err := Run(faulty)
	if err != nil {
		t.Fatal(err)
	}
	var cleanRel, slowRel float64
	for i := range clean.TBs {
		if plan.Kernel.TBs[i].ID == 0 {
			cleanRel = clean.TBs[i].Release
			slowRel = slow.TBs[i].Release
		}
	}
	if slowRel <= cleanRel*1.05 {
		t.Fatalf("straggling TB 0 release barely moved: %v vs %v", slowRel, cleanRel)
	}
}

// TestFaultScheduleRejected: an invalid schedule must fail the run with
// a descriptive error instead of corrupting state.
func TestFaultScheduleRejected(t *testing.T) {
	tp := topo.New(1, 2, topo.A100())
	plan := compileAR(t, tp, 1, 2)
	cfg := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 1 << 20, ChunkBytes: 1 << 20,
		Faults: &fault.Schedule{Events: []fault.Event{
			{Kind: fault.KindStraggler, Start: 0, Duration: 1, TB: 999, Factor: 2},
		}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid schedule accepted")
	}
}
