package sim

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// background is traffic from other jobs consuming frac of each
// resource's capacity for the whole run: a degrade window that opens at
// 0 and outlasts it.
func background(frac float64, rs ...topo.ResourceID) fault.Event {
	return fault.Event{Kind: fault.KindLinkDegrade, Duration: 3600, Factor: 1 - frac, Resources: rs}
}

// Background load on a NIC must slow the collective down, and more load
// must slow it more.
func TestBackgroundLoadMonotone(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	run := func(frac float64) float64 {
		cfg := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 128 << 20, ChunkBytes: 1 << 20}
		if frac > 0 {
			cfg.Faults = &fault.Schedule{Events: []fault.Event{background(frac, tp.NICEgress(0), tp.NICIngress(0))}}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Completion
	}
	clean := run(0)
	half := run(0.5)
	heavy := run(0.9)
	extreme := run(0.95)
	if !(clean < half && half < heavy && heavy < extreme) {
		t.Errorf("background load not monotone: clean %g, 50%% %g, 90%% %g, 95%% %g", clean, half, heavy, extreme)
	}
}

// The lazy micro-batch barrier must not change the result's correctness
// properties, only slow execution down relative to pipelined execution
// of the same plan.
func TestMBBarrierSlower(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllGather(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewMSCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	// Stage-level HM-AG has no barrier; flip it on for comparison.
	pipelined := *plan.Kernel
	pipelined.MBBarrier = false
	lazy := *plan.Kernel
	lazy.MBBarrier = true
	rp, err := Run(Config{Topo: tp, Kernel: &pipelined, BufferBytes: 256 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Run(Config{Topo: tp, Kernel: &lazy, BufferBytes: 256 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rl.Completion <= rp.Completion {
		t.Errorf("lazy execution (%g) should be slower than pipelined (%g)", rl.Completion, rp.Completion)
	}
	if rl.Instances != rp.Instances {
		t.Errorf("instance counts differ: %d vs %d", rl.Instances, rp.Instances)
	}
}

// Timeline recording must produce sorted, non-overlapping busy segments
// whose total length matches each TB's Exec time.
func TestTimelineSegments(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.RingAllGather(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 32 << 20, ChunkBytes: 1 << 20, RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	for id, tb := range res.TBs {
		if len(tb.Segments) == 0 {
			t.Fatalf("TB %d has no segments", id)
		}
		total := 0.0
		for i, seg := range tb.Segments {
			if seg[1] <= seg[0] {
				t.Fatalf("TB %d: empty segment %v", id, seg)
			}
			if i > 0 && seg[0] < tb.Segments[i-1][1] {
				t.Fatalf("TB %d: overlapping segments %v, %v", id, tb.Segments[i-1], seg)
			}
			total += seg[1] - seg[0]
		}
		if diff := total - tb.Exec; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("TB %d: segment total %g != exec %g", id, total, tb.Exec)
		}
	}
	// Without recording, no segments are kept.
	res2, err := Run(Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 32 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range res2.TBs {
		if len(tb.Segments) != 0 {
			t.Error("segments recorded without RecordTimeline")
		}
	}
}

func TestRunRejectsNilInputs(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("nil topology/kernel should fail")
	}
}

// A kernel whose TBs disagree on rendezvous order must be detected as a
// deadlock by the simulator rather than looping or hanging.
func TestSimDeadlockDetection(t *testing.T) {
	tp := topo.New(1, 2, topo.A100())
	algo := &ir.Algorithm{
		Name: "crossed", Op: ir.OpAllReduce, NRanks: 2, NChunks: 2,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
			{Src: 0, Dst: 1, Step: 1, Chunk: 1, Type: ir.CommRecv},
		},
	}
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
	_, err = Run(Config{Topo: tp, Kernel: k, BufferBytes: 16 << 20, ChunkBytes: 1 << 20})
	if err == nil {
		t.Fatal("crossed rendezvous order should be reported as deadlock")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error should mention deadlock: %v", err)
	}
}

// Two tasks on disjoint thread blocks whose link predecessors name each
// other can never start: the run stalls with both pairs of TBs waiting,
// and the failure is a StallError that wraps kernel.ErrDeadlock.
func TestLinkPredCycleIsDeadlock(t *testing.T) {
	tp := topo.New(1, 2, topo.A100())
	algo := &ir.Algorithm{
		Name: "cycle", Op: ir.OpAllReduce, NRanks: 2, NChunks: 2,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
			{Src: 0, Dst: 1, Step: 0, Chunk: 1, Type: ir.CommRecv},
		},
	}
	g, err := dag.Build(algo, tp)
	if err != nil {
		t.Fatal(err)
	}
	send0, recv0 := g.Tasks[0].Primitives()
	send1, recv1 := g.Tasks[1].Primitives()
	k := &kernel.Kernel{
		Name: "cycle", Graph: g,
		SendTB: []int{0, 2}, RecvTB: []int{1, 3},
		// Task 0 waits for task 1 and task 1 for task 0.
		LinkPreds: dag.CSR{Off: []int32{0, 1, 2}, Items: []ir.TaskID{1, 0}},
		TBs: []*kernel.TBProgram{
			{ID: 0, Rank: 0, Order: kernel.TaskMajor, Label: "send0", Slots: []ir.Primitive{send0}},
			{ID: 1, Rank: 1, Order: kernel.TaskMajor, Label: "recv0", Slots: []ir.Primitive{recv0}},
			{ID: 2, Rank: 0, Order: kernel.TaskMajor, Label: "send1", Slots: []ir.Primitive{send1}},
			{ID: 3, Rank: 1, Order: kernel.TaskMajor, Label: "recv1", Slots: []ir.Primitive{recv1}},
		},
	}
	_, err = Run(Config{Topo: tp, Kernel: k, BufferBytes: 16 << 20, ChunkBytes: 1 << 20})
	if !errors.Is(err, kernel.ErrDeadlock) {
		t.Fatalf("got %v, want an error wrapping kernel.ErrDeadlock", err)
	}
	var stall *StallError
	if !errors.As(err, &stall) || stall.Livelock || stall.DoneTBs != 0 || stall.TBs != 4 || len(stall.Blocked) != 4 {
		t.Fatalf("got %#v, want a deadlock StallError with 0/4 TBs done and 4 blocked", err)
	}
	const want = "sim: deadlock at t=0.000000s: 0/4 TBs done; blocked: [session 0 TB 0 (send0) at task 0 mb 0/"
	if !strings.HasPrefix(err.Error(), want) {
		t.Errorf("error %q does not start with %q", err, want)
	}
}
