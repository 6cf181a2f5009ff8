package rt

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// twoNodePerNIC compiles a 2×2 HM AllReduce where every rank owns its
// own NIC, so a single NIC failure strands one rank's inter-node sends
// without partitioning the cluster.
func twoNodePerNIC(t *testing.T) (*topo.Topology, *backend.Plan) {
	t.Helper()
	tp := topo.New(2, 2, topo.A100(), topo.WithNICs(2))
	algo, err := expert.HMAllReduce(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	return tp, plan
}

// TestReplanLinkOut: a permanently dead NIC queue must escalate past the
// retry ladder into exactly one replan, after which the collective
// completes and the full (frontier + repair) trace verifies — nothing
// lost, since all ranks survive and relays exist.
func TestReplanLinkOut(t *testing.T) {
	tp, plan := twoNodePerNIC(t)
	eg, _ := tp.NICResources(0)
	res, err := Execute(Config{
		Kernel:       plan.Kernel,
		MicroBatches: 2,
		Faults:       &fault.Schedule{Events: []fault.Event{fault.LinkOut(eg, 0)}},
		Recovery:     fastRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReplanEvents) != 1 {
		t.Fatalf("permanent link failure produced %d replan events, want 1", len(res.ReplanEvents))
	}
	ev := res.ReplanEvents[0]
	if ev.CompletedTasks+ev.AbandonedTasks != len(plan.Kernel.Graph.Tasks) {
		t.Fatalf("completed %d + abandoned %d ≠ %d tasks", ev.CompletedTasks, ev.AbandonedTasks, len(plan.Kernel.Graph.Tasks))
	}
	if ev.AbandonedTasks == 0 || ev.RepairTasks == 0 {
		t.Fatalf("replan abandoned %d and repaired %d tasks, want both > 0", ev.AbandonedTasks, ev.RepairTasks)
	}
	if len(ev.LostChunks) != 0 || res.Lost != nil && hasLoss(res) {
		t.Fatalf("link-only failure lost chunks: %v", ev.LostChunks)
	}
	var escalates int
	for _, a := range res.Recovery {
		if a.Kind == ActionEscalate {
			escalates++
		}
	}
	if escalates == 0 {
		t.Fatalf("no escalate actions recorded: %+v", res.Recovery)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("replanned run failed verification: %v", err)
	}
}

func hasLoss(res *Result) bool {
	for _, l := range res.Lost {
		if !l.Empty() {
			return true
		}
	}
	return false
}

// TestReplanRankOut: a dead rank must be carved out; survivors complete
// a degraded AllReduce whose verifier accepts exactly the survivors'
// contributions.
func TestReplanRankOut(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(Config{
		Kernel:       plan.Kernel,
		MicroBatches: 2,
		Faults:       &fault.Schedule{Events: []fault.Event{fault.RankOut(3, 0)}},
		Recovery:     fastRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReplanEvents) != 1 {
		t.Fatalf("got %d replan events, want 1", len(res.ReplanEvents))
	}
	if got := res.ReplanEvents[0].DeadRanks; !reflect.DeepEqual(got, []ir.Rank{3}) {
		t.Fatalf("dead ranks %v, want [3]", got)
	}
	if want := []bool{true, true, true, false}; !reflect.DeepEqual(res.Surviving, want) {
		t.Fatalf("surviving %v, want %v", res.Surviving, want)
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("degraded run failed verification: %v", err)
	}
}

// TestReplanDeterministic: the replan event log and executed trace must
// be identical across runs — plan-level recovery is a pure function of
// (kernel, schedule), untouched by goroutine interleaving.
func TestReplanDeterministic(t *testing.T) {
	tp, plan := twoNodePerNIC(t)
	eg, _ := tp.NICResources(0)
	cfg := Config{
		Kernel:       plan.Kernel,
		MicroBatches: 3,
		Faults:       &fault.Schedule{Events: []fault.Event{fault.LinkOut(eg, 0)}},
		Recovery:     fastRecovery,
	}
	a, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.ReplanEvents, b.ReplanEvents) {
		t.Fatalf("replan events differ:\n%+v\nvs\n%+v", a.ReplanEvents, b.ReplanEvents)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatal("executed traces differ across runs")
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("recovery logs differ:\n%+v\nvs\n%+v", a.Recovery, b.Recovery)
	}
}

// TestPermanentOffPlan: a permanent failure no task crosses must not
// trigger a replan at all.
func TestPermanentOffPlan(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	eg, _ := tp.NICResources(0) // single-node plan never touches NICs
	res, err := Execute(Config{
		Kernel:       plan.Kernel,
		MicroBatches: 2,
		Faults:       &fault.Schedule{Events: []fault.Event{fault.LinkOut(eg, 0)}},
		Recovery:     fastRecovery,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReplanEvents) != 0 || len(res.Recovery) != 0 {
		t.Fatalf("off-plan permanent failure produced recovery state: %+v %+v", res.ReplanEvents, res.Recovery)
	}
	if err := res.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestReplanPartitionedTyped: permanently isolating a node must abort
// with the typed replan.ErrPartitioned, actionable for callers.
func TestReplanPartitionedTyped(t *testing.T) {
	tp, plan := func() (*topo.Topology, *backend.Plan) {
		tp := topo.New(2, 2, topo.A100()) // one shared NIC per node
		algo, err := expert.HMAllReduce(2, 2)
		if err != nil {
			t.Fatal(err)
		}
		p, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			t.Fatal(err)
		}
		return tp, p
	}()
	eg, in := tp.NICResources(0)
	_, err := Execute(Config{
		Kernel:       plan.Kernel,
		MicroBatches: 1,
		Faults: &fault.Schedule{Events: []fault.Event{
			fault.LinkOut(eg, 0), fault.LinkOut(in, 0),
		}},
		Recovery: fastRecovery,
	})
	if !errors.Is(err, ErrPartitioned) {
		t.Fatalf("isolated node produced %v, want ErrPartitioned", err)
	}
}

// TestCompileRepairRejectsUndefinedProtocol: the repair kernel inherits
// the running kernel's protocol tier after kernel.Generate has checked
// its structure, so the gate must refuse an undefined tier itself.
func TestCompileRepairRejectsUndefinedProtocol(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	algo, err := expert.HMAllReduce(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compileRepair(algo, tp, 2, ir.ProtoSimple); err != nil {
		t.Fatalf("repair under Simple: %v", err)
	}
	if _, err := compileRepair(algo, tp, 2, ir.Protocol(99)); err == nil {
		t.Fatal("repair accepted an undefined protocol tier")
	}
}
