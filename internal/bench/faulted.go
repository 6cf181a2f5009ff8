package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// Faulted is the dynamic-interference companion to the §4.4 static
// contention ablation: instead of a fixed congestion map, a seeded
// fault.Schedule injects link degradations, outages, NIC flaps and
// straggler TBs while the collective runs, and the harness reports each
// backend's goodput as the event count (the fault rate) grows. A second
// table exercises the recovery protocol on the simulated clock: sends
// crossing downed links retry with backoff and degrade their
// sub-pipeline when the budget runs out, and the result must still
// verify. A third escalates to plan-level recovery.
func Faulted(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.A100())
	buf := int64(256 << 20)
	rates := []int{0, 4, 8, 16}
	if opts.Quick {
		buf = 64 << 20
		rates = []int{0, 4, 8}
	}
	algo, err := expert.Build("hm-allreduce", 2, 8)
	if err != nil {
		return nil, err
	}

	goodput, err := faultSweep(opts, tp, algo, buf, rates)
	if err != nil {
		return nil, err
	}
	recovery, err := recoveryTable(opts)
	if err != nil {
		return nil, err
	}
	replan, err := replanTable(opts)
	if err != nil {
		return nil, err
	}
	return []*Table{goodput, recovery, replan}, nil
}

// faultSweep runs every backend's plan under seeded schedules of
// growing event count. The horizon is each plan's own clean completion
// time, so a rate of N means N events land while the collective runs.
func faultSweep(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64, rates []int) (*Table, error) {
	t := &Table{
		ID:    "faulted",
		Title: "Goodput under injected faults (HM AllReduce, 2×8, GB/s)",
		Notes: []string{
			"seeded schedules: 40% link degradations, 30% link-down windows, 15% NIC flaps, 15% straggler TBs, landing within each plan's clean completion window",
		},
	}
	t.Header = append(t.Header, "Backend")
	for _, r := range rates {
		t.Header = append(t.Header, fmt.Sprintf("%d events", r))
	}
	// Each backend is one cell: the faulted runs depend on the clean
	// run's completion time (the schedule horizon), so they stay chained
	// within the cell.
	bks := backends()
	rows := make([][]string, len(bks))
	err := runCells(opts, len(bks), func(c int) error {
		b := bks[c]
		plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return err
		}
		clean, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return err
		}
		row := []string{b.Name()}
		for _, n := range rates {
			sched := fault.Within(tp, 7, n, clean[0].Completion, len(plan.Kernel.TBs))
			res, err := simulate(opts, exec.Request{Topo: tp, Faults: sched}, buf, plan)
			if err != nil {
				return fmt.Errorf("%s n=%d: %w", b.Name(), n, err)
			}
			row = append(row, gb(res[0].AlgoBW))
		}
		rows[c] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// recoveryTable executes a ResCCL plan under an outage on one NIC and
// reports the recovery protocol's actions and their simulated cost.
func recoveryTable(opts Options) (*Table, error) {
	t := &Table{
		ID:     "faulted",
		Title:  "Recovery under a NIC outage (ResCCL kernel, 2×2, 4 micro-batches)",
		Header: []string{"Scenario", "retries", "recovered", "degraded", "subs degraded", "completion (µs)", "GB/s", "verified"},
		Notes: []string{
			"a send crossing a down window retries after 1, 2 and 4 ms of backoff; an outage longer than that 7 ms budget forces the affected sub-pipelines from pipelined to sequential execution, and the collective still completes and verifies",
		},
	}
	tp := topo.New(2, 2, topo.A100())
	algo, err := expert.Build("hm-allreduce", 2, 2)
	if err != nil {
		return nil, err
	}
	plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		label    string
		duration float64
	}{
		{"short outage (retry wins)", 1e-3},
		{"long outage (degrade)", 1e-2},
	}
	rows := make([][]string, len(scenarios))
	err = runCells(opts, len(scenarios), func(c int) error {
		sc := scenarios[c]
		sched := &fault.Schedule{Events: []fault.Event{fault.NICFlap(tp, 0, 0, sc.duration)}}
		out, err := execute(opts, tp, sched, plan, 4)
		if err != nil {
			return err
		}
		rec := out.Recovery
		rows[c] = []string{sc.label, fmt.Sprint(rec.Retries), fmt.Sprint(rec.Recovered), fmt.Sprint(rec.Degraded),
			fmt.Sprint(rec.DegradedSubs), us(out.Result.Completion), gb(out.Result.AlgoBW), "yes"}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// replanTable escalates past degrade: permanent failures strand part of
// the plan, so the run abandons the stranded tasks, carves the dead
// links or rank out of the topology and replans the remaining work
// (internal/replan) in a second epoch. The table reports the recovery's
// cost as the failures grow.
func replanTable(opts Options) (*Table, error) {
	t := &Table{
		ID:    "faulted",
		Title: "Plan-level recovery vs permanent failures (ResCCL HM AllReduce, 2×4, per-GPU NICs, 2 micro-batches)",
		Header: []string{"permanent failures", "replans", "completed", "abandoned", "repair tasks", "retries", "lost chunks",
			"completion (µs)", "GB/s", "verified"},
		Notes: []string{
			"each dead link is one NIC egress queue on node 0; with per-GPU NICs the node stays reachable, so every scenario completes and verifies through the repair plan",
			"the repair epoch starts once the frontier has drained and the first stranded send has spent its 7 ms retry budget; a dead rank's contributions are lost and the survivors' degraded AllReduce verifies",
		},
	}
	tp := topo.New(2, 4, topo.A100(), topo.WithNICs(4))
	algo, err := expert.Build("hm-allreduce", 2, 4)
	if err != nil {
		return nil, err
	}
	plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		return nil, err
	}
	deadLinks := []int{0, 1, 2, 3}
	if opts.Quick {
		deadLinks = []int{0, 1, 2}
	}
	type scenario struct {
		label  string
		events []fault.Event
	}
	var scenarios []scenario
	for _, n := range deadLinks {
		sc := scenario{label: "none"}
		if n > 0 {
			sc.label = fmt.Sprintf("%d dead NIC egress", n)
		}
		for k := 0; k < n; k++ {
			sc.events = append(sc.events, fault.LinkOut(tp.NICEgress(k), 0))
		}
		scenarios = append(scenarios, sc)
	}
	scenarios = append(scenarios, scenario{"rank 7 out", []fault.Event{fault.RankOut(7, 0)}})
	rows := make([][]string, len(scenarios))
	err = runCells(opts, len(scenarios), func(c int) error {
		sc := scenarios[c]
		var sched *fault.Schedule
		if len(sc.events) > 0 {
			sched = &fault.Schedule{Events: sc.events}
		}
		out, err := execute(opts, tp, sched, plan, 2)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.label, err)
		}
		replans, completed, abandoned, repair, retries, lost := 0, len(plan.Kernel.Graph.Tasks), 0, 0, 0, 0
		if rec := out.Recovery; rec != nil {
			retries = rec.Retries
			if ev := rec.Replan; ev != nil {
				replans, completed, abandoned, repair, lost = 1, ev.CompletedTasks, ev.AbandonedTasks, ev.RepairTasks, len(ev.LostChunks)
			}
		}
		rows[c] = []string{
			sc.label, fmt.Sprint(replans), fmt.Sprint(completed), fmt.Sprint(abandoned), fmt.Sprint(repair),
			fmt.Sprint(retries), fmt.Sprint(lost), us(out.Result.Completion), gb(out.Result.AlgoBW), "yes",
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// execute runs plan for nMB micro-batches under sched through
// exec.Execute, which fails unless the run verifies.
func execute(opts Options, tp *topo.Topology, sched *fault.Schedule, plan *backend.Plan, nMB int) (exec.Outcome, error) {
	out := exec.Outcome{Plan: plan}
	err := exec.Execute(exec.Request{Topo: tp, Faults: sched, Metrics: opts.Metrics, Trace: opts.Trace}, &out, nMB)
	return out, err
}
