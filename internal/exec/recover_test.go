package exec

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/replan"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// execute compiles algo on b and executes it for nMB micro-batches
// under faults.
func execute(t *testing.T, b backend.Backend, algo *ir.Algorithm, tp *topo.Topology, faults *fault.Schedule, nMB int) (Outcome, error) {
	t.Helper()
	req := Request{Backend: b, Topo: tp, Faults: faults, Metrics: obs.NewMetrics()}
	out, err := Compile(context.Background(), req, Call{Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	return out, Execute(req, &out, nMB)
}

// Every backend's kernel for every algorithm family must execute to the
// operator's postcondition in every micro-batch, and a run whose record
// lost a transfer must fail verification.
func TestAllKernelsExecuteCorrectly(t *testing.T) {
	cases := []struct {
		name        string
		nNodes, gpn int
		build       func(int, int) (*ir.Algorithm, error)
	}{
		{"hm-ar", 2, 4, expert.HMAllReduce},
		{"hm-ag", 2, 4, expert.HMAllGather},
		{"hm-rs", 2, 4, expert.HMReduceScatter},
		{"taccl-ar", 2, 4, synth.TACCLAllReduce},
		{"teccl-ag", 2, 4, func(n, g int) (*ir.Algorithm, error) { return expert.BuildOn("synth:teccl-allgather", n, g) }},
		{"mesh-ar", 1, 8, func(_, g int) (*ir.Algorithm, error) { return expert.MeshAllReduce(g) }},
		{"tree-ar", 1, 8, func(_, g int) (*ir.Algorithm, error) { return expert.TreeAllReduce(g) }},
	}
	for _, tc := range cases {
		algo, err := tc.build(tc.nNodes, tc.gpn)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tp := topo.New(tc.nNodes, tc.gpn, topo.A100())
		for _, b := range []backend.Backend{backend.NewNCCL(), backend.NewMSCCL(), backend.NewResCCL()} {
			out, err := execute(t, b, algo, tp, nil, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name(), err)
			}
			if want := 3 * len(out.Plan.Kernel.Graph.Tasks); out.Result.Instances != want {
				t.Errorf("%s/%s: %d instances, want %d", tc.name, b.Name(), out.Result.Instances, want)
			}
			// Dropping the last micro-batch's last transfer leaves some
			// rank short of a contribution.
			tl := out.Result.Timeline
			out.Result.Timeline = tl[:len(tl)-1]
			if err := verifyRun(out); !errors.Is(err, ErrIncorrect) {
				t.Errorf("%s/%s: a run missing a transfer verified: %v", tc.name, b.Name(), err)
			}
		}
	}
}

// A kernel whose two thread blocks disagree on task order deadlocks; the
// gate rejects it before it is simulated.
func TestGateRejectsCrossedKernel(t *testing.T) {
	algo := &ir.Algorithm{
		Name: "crossed", Op: ir.OpAllReduce, NRanks: 2, NChunks: 2,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
			{Src: 0, Dst: 1, Step: 1, Chunk: 1, Type: ir.CommRecv},
		},
	}
	tp := topo.New(1, 2, topo.A100())
	g, err := dag.Build(algo, tp)
	if err != nil {
		t.Fatal(err)
	}
	send0, recv0 := g.Tasks[0].Primitives()
	send1, recv1 := g.Tasks[1].Primitives()
	k := &kernel.Kernel{
		Name: "crossed", Graph: g,
		SendTB: []int{0, 0}, RecvTB: []int{1, 1},
		LinkPreds: dag.CSR{Off: make([]int32, 3)},
		TBs: []*kernel.TBProgram{
			{ID: 0, Rank: 0, Order: kernel.TaskMajor, Label: "send", Slots: []ir.Primitive{send0, send1}},
			{ID: 1, Rank: 1, Order: kernel.TaskMajor, Label: "recv", Slots: []ir.Primitive{recv1, recv0}},
		},
	}
	out := Outcome{Plan: &backend.Plan{Algo: algo, Kernel: k}}
	if err := Execute(Request{Topo: tp}, &out, 1); !errors.Is(err, ErrIncorrect) {
		t.Fatalf("crossed kernel: %v, want ErrIncorrect", err)
	}
	if out.Result != nil {
		t.Fatal("a gate-rejected kernel reached the simulator")
	}
}

// nicOutage downs both queues of NIC 0 for d seconds from time 0.
func nicOutage(tp *topo.Topology, d float64) *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{fault.NICFlap(tp, 0, 0, d)}}
}

// twoByTwo is a 2×2 HM AllReduce, where NIC queues are the only
// inter-node path; nics > 0 gives every node that many NICs.
func twoByTwo(t *testing.T, nics int) (*ir.Algorithm, *topo.Topology) {
	t.Helper()
	var opts []topo.Option
	if nics > 0 {
		opts = append(opts, topo.WithNICs(nics))
	}
	algo, err := expert.HMAllReduce(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	return algo, topo.New(2, 2, topo.A100(), opts...)
}

// An outage within the 7 ms retry budget is absorbed by retries; a
// longer one degrades the affected sub-pipelines, costs simulated time,
// and the collective still verifies. Both are deterministic.
func TestRetryAndDegrade(t *testing.T) {
	algo, tp := twoByTwo(t, 0)
	clean, err := execute(t, backend.NewResCCL(), algo, tp, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	short, err := execute(t, backend.NewResCCL(), algo, tp, nicOutage(tp, 1e-3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := short.Recovery; r.Retries == 0 || r.Retries != r.Recovered || r.Degraded != 0 || r.DegradedSubs != nil {
		t.Fatalf("1 ms outage: %+v, want one retry per recovered invocation and no degrade", r)
	}
	long, err := execute(t, backend.NewResCCL(), algo, tp, nicOutage(tp, 1e-2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r := long.Recovery; r.Degraded == 0 || r.Recovered != 0 || r.Retries != 3*r.Degraded || len(r.DegradedSubs) == 0 {
		t.Fatalf("10 ms outage: %+v, want three retries per degraded invocation", r)
	}
	if !(clean.Result.Completion < short.Result.Completion && short.Result.Completion < long.Result.Completion) {
		t.Fatalf("completions clean %g, 1 ms %g, 10 ms %g: outages must cost time",
			clean.Result.Completion, short.Result.Completion, long.Result.Completion)
	}
	again, err := execute(t, backend.NewResCCL(), algo, tp, nicOutage(tp, 1e-2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Recovery, long.Recovery) || !reflect.DeepEqual(again.Result, long.Result) {
		t.Fatal("equal faulted runs differ")
	}
}

// offPathRun executes a single-node 4-GPU mesh AllReduce, which never
// touches a NIC, for two micro-batches under ev on NIC 0's egress queue
// (nil for a clean run).
func offPathRun(t *testing.T, ev func(eg topo.ResourceID) fault.Event) Outcome {
	t.Helper()
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	var sched *fault.Schedule
	if ev != nil {
		eg, _ := tp.NICResources(0)
		sched = &fault.Schedule{Events: []fault.Event{ev(eg)}}
	}
	out, err := execute(t, backend.NewResCCL(), algo, tp, sched, 2)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A down window on a NIC no task crosses changes nothing.
func TestFaultOffPath(t *testing.T) {
	out := offPathRun(t, func(eg topo.ResourceID) fault.Event { return fault.LinkDown(eg, 0, 1e-2) })
	if !reflect.DeepEqual(*out.Recovery, replan.Recovery{}) {
		t.Fatalf("down window off every path recovered: %+v", out.Recovery)
	}
}

// A permanent failure no task crosses triggers no replan, and the run
// finishes when the clean run does.
func TestPermanentOffPlan(t *testing.T) {
	clean := offPathRun(t, nil)
	out := offPathRun(t, func(eg topo.ResourceID) fault.Event { return fault.LinkOut(eg, 0) })
	if !reflect.DeepEqual(*out.Recovery, replan.Recovery{}) {
		t.Fatalf("link-out off every path recovered: %+v", out.Recovery)
	}
	if out.Result.Completion != clean.Result.Completion {
		t.Fatalf("off-plan link-out completed at %g, clean run at %g", out.Result.Completion, clean.Result.Completion)
	}
}

// A run without faults records no recovery and verifies.
func TestNoFaultsNoRecovery(t *testing.T) {
	algo, tp := twoByTwo(t, 0)
	for _, sched := range []*fault.Schedule{nil, {}} {
		out, err := execute(t, backend.NewResCCL(), algo, tp, sched, 2)
		if err != nil {
			t.Fatal(err)
		}
		if out.Recovery != nil {
			t.Fatalf("fault-free run recovered: %+v", out.Recovery)
		}
		if want := 2 * len(out.Plan.Kernel.Graph.Tasks); out.Result.Instances != want {
			t.Fatalf("%d instances, want %d", out.Result.Instances, want)
		}
	}
}

// Execute runs at least one micro-batch: asking for one or for none
// simulates and verifies exactly one.
func TestSingleMicroBatch(t *testing.T) {
	algo, err := expert.RingAllGather(6)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New(1, 6, topo.A100())
	for _, nMB := range []int{1, 0} {
		out, err := execute(t, backend.NewResCCL(), algo, tp, nil, nMB)
		if err != nil {
			t.Fatalf("%d micro-batches: %v", nMB, err)
		}
		if got := out.Result.Plan.NMicroBatches; got != 1 {
			t.Fatalf("asked for %d micro-batches, simulated %d", nMB, got)
		}
		if want := len(out.Plan.Kernel.Graph.Tasks); out.Result.Instances != want {
			t.Fatalf("%d instances, want %d", out.Result.Instances, want)
		}
	}
}

// A plan without a kernel fails the gate.
func TestNilKernelRejected(t *testing.T) {
	out := Outcome{Plan: &backend.Plan{}}
	if err := Execute(Request{Topo: topo.New(1, 2, topo.A100())}, &out, 1); !errors.Is(err, ErrIncorrect) {
		t.Fatalf("nil kernel: %v, want ErrIncorrect", err)
	}
	if out.Result != nil {
		t.Fatal("a nil kernel reached the simulator")
	}
}

// A dead NIC queue escalates past retry into one replan; the frontier
// plus the repair epoch completes the collective with nothing lost, and
// the repair epoch follows the frontier on the simulated clock.
func TestReplanLinkOut(t *testing.T) {
	algo, tp := twoByTwo(t, 2)
	eg, _ := tp.NICResources(0)
	out, err := execute(t, backend.NewResCCL(), algo, tp, &fault.Schedule{Events: []fault.Event{fault.LinkOut(eg, 0)}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := out.Recovery.Replan
	if ev == nil {
		t.Fatal("a dead NIC queue on the plan did not replan")
	}
	if n := len(out.Plan.Kernel.Graph.Tasks); ev.CompletedTasks+ev.AbandonedTasks != n || ev.AbandonedTasks == 0 || ev.RepairTasks == 0 {
		t.Fatalf("replan %+v of %d tasks", ev, n)
	}
	if len(ev.LostChunks) != 0 || ev.Escalated == 0 || out.Recovery.Retries != 3*ev.Escalated {
		t.Fatalf("replan %+v, recovery %+v", ev, out.Recovery)
	}
	if ev.Start < 7e-3 || out.Result.Completion <= ev.Start {
		t.Fatalf("repair epoch starts at %g and the run ends at %g", ev.Start, out.Result.Completion)
	}
	tl := out.Timeline("replan", tp)
	if len(tl.Replans) != 1 || tl.Replans[0].Time != ev.Start {
		t.Fatalf("timeline replan marks %+v, want one at %g", tl.Replans, ev.Start)
	}
	if len(tl.Faults) != 1 || tl.Faults[0].End != out.Result.Completion {
		t.Fatalf("timeline fault lane %+v: the link-out window must end with the run at %g", tl.Faults, out.Result.Completion)
	}
	if err := tl.WriteChrome(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// A dead rank is carved out and gets a completion time; the survivors'
// degraded AllReduce verifies.
func TestReplanRankOut(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute(t, backend.NewResCCL(), algo, tp, &fault.Schedule{Events: []fault.Event{fault.RankOut(3, 0)}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev := out.Recovery.Replan
	if ev == nil || !reflect.DeepEqual(ev.DeadRanks, []ir.Rank{3}) || !reflect.DeepEqual(ev.Surviving, []bool{true, true, true, false}) {
		t.Fatalf("rank-out replan %+v", ev)
	}
	if out.Result.Completion <= 0 {
		t.Fatalf("rank-out run completed at %g", out.Result.Completion)
	}
}

// Replanning is a pure function of (kernel, schedule).
func TestReplanDeterministic(t *testing.T) {
	algo, tp := twoByTwo(t, 2)
	eg, _ := tp.NICResources(0)
	sched := &fault.Schedule{Events: []fault.Event{fault.LinkOut(eg, 0), fault.NICFlap(tp, 1, 0, 2e-3)}}
	a, err := execute(t, backend.NewResCCL(), algo, tp, sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := execute(t, backend.NewResCCL(), algo, tp, sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) || !reflect.DeepEqual(a.Result, b.Result) {
		t.Fatal("equal replanned runs differ")
	}
}

// Permanently isolating a node aborts with the typed ErrPartitioned, and
// a concurrent run under permanent failures with ErrConcurrentReplan.
func TestReplanTypedErrors(t *testing.T) {
	algo, tp := twoByTwo(t, 0)
	eg, in := tp.NICResources(0)
	sched := &fault.Schedule{Events: []fault.Event{fault.LinkOut(eg, 0), fault.LinkOut(in, 0)}}
	if _, err := execute(t, backend.NewResCCL(), algo, tp, sched, 1); !errors.Is(err, replan.ErrPartitioned) {
		t.Fatalf("isolated node: %v, want ErrPartitioned", err)
	}
	req := Request{Backend: backend.NewResCCL(), Topo: tp, Faults: sched}
	calls := []Call{{Algo: algo, BufferBytes: 1 << 20}, {Algo: algo, BufferBytes: 1 << 20}}
	if _, err := Run(context.Background(), req, calls...); !errors.Is(err, ErrConcurrentReplan) {
		t.Fatalf("concurrent run under permanent failures: %v, want ErrConcurrentReplan", err)
	}
}

// A 512-rank hierarchical AllReduce on a rail fabric recovers from a
// 10 ms NIC outage, beyond the retry budget, and verifies.
func TestScaleOutageVerifies(t *testing.T) {
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	algo, err := expert.BuildOn("hier-allreduce", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute(t, backend.NewResCCL(), algo, tp, nicOutage(tp, 1e-2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := out.Recovery; r.Degraded == 0 || len(r.DegradedSubs) == 0 {
		t.Fatalf("10 ms outage on a 512-rank plan: %+v, want degraded sub-pipelines", r)
	}
}
