package bench

import (
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/rt"
	"github.com/resccl/resccl/internal/topo"
)

// Faulted is the dynamic-interference companion to the §4.4 static
// contention ablation: instead of a fixed congestion map, a seeded
// fault.Schedule injects link degradations, outages, NIC flaps and
// straggler TBs while the collective runs, and the harness reports each
// backend's goodput as the event count (the fault rate) grows. A second
// table exercises the runtime's recovery protocol: sends crossing
// downed links retry with backoff and degrade their sub-pipeline when
// the budget runs out, and the result must still verify.
func Faulted(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.A100())
	buf := int64(256 << 20)
	rates := []int{0, 4, 8, 16}
	if opts.Quick {
		buf = 64 << 20
		rates = []int{0, 4, 8}
	}
	algo, err := expertAR(2, 8)
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

// recoveryTable drives the data-plane runtime under an outage on one
// NIC and reports the recovery protocol's actions.
func recoveryTable(opts Options) (*Table, error) {
	t := &Table{
		ID:     "faulted",
		Title:  "Runtime recovery under a NIC outage (ResCCL kernel, 2×2, 4 micro-batches)",
		Header: []string{"Scenario", "retries", "recovered", "degraded", "subs degraded", "verified"},
		Notes: []string{
			"an outage longer than the retry budget forces the affected sub-pipeline from pipelined to sequential execution; the collective still completes and verifies",
		},
	}
	tp := topo.New(2, 2, topo.A100())
	algo, err := expertAR(2, 2)
	if err != nil {
		return nil, err
	}
	plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		return nil, err
	}
	eg, in := tp.NICResources(0)
	scenarios := []struct {
		label string
		ev    fault.Event
	}{
		{"short outage (retry wins)", fault.Event{Kind: fault.KindLinkDown, Start: 0, Duration: 1e-3,
			Resources: []topo.ResourceID{eg, in}, Attempts: 2}},
		{"long outage (degrade)", fault.Event{Kind: fault.KindLinkDown, Start: 0, Duration: 1e-2,
			Resources: []topo.ResourceID{eg, in}, Attempts: 6}},
	}
	rows := make([][]string, len(scenarios))
	err = runCells(opts, len(scenarios), func(c int) error {
		sc := scenarios[c]
		res, err := rt.Execute(rt.Config{
			Kernel:       plan.Kernel,
			MicroBatches: 4,
			Faults:       &fault.Schedule{Events: []fault.Event{sc.ev}},
			Recovery:     rt.RecoveryPolicy{MaxRetries: 3, Backoff: 50 * time.Microsecond},
		})
		if err != nil {
			return err
		}
		verified := "yes"
		if err := res.Verify(); err != nil {
			verified = "NO: " + err.Error()
		}
		retries, recovered, degraded := 0, 0, 0
		for _, a := range res.Recovery {
			switch a.Kind {
			case rt.ActionRetry:
				retries++
			case rt.ActionRecovered:
				recovered++
			case rt.ActionDegrade:
				degraded++
			}
		}
		rows[c] = []string{sc.label, fmt.Sprint(retries), fmt.Sprint(recovered),
			fmt.Sprint(degraded), fmt.Sprint(res.DegradedSubs), verified}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// replanTable escalates past degrade: permanent link failures strand
// part of the plan, forcing the runtime to abandon the blocked tasks,
// carve the dead links out of the topology and replan the remaining
// work (see internal/rt replan.go). The table reports the recovery
// protocol's cost as the number of dead links grows.
func replanTable(opts Options) (*Table, error) {
	t := &Table{
		ID:    "faulted",
		Title: "Plan-level recovery vs permanent link failures (ResCCL HM AllReduce, 2×4, per-GPU NICs, 2 micro-batches)",
		Header: []string{"dead links", "replans", "completed", "abandoned", "repair tasks", "retries", "lost chunks",
			"recover (wall ms)", "goodput (wall inst/s)", "verified"},
		Notes: []string{
			"task counts, retries and the replan log are pure functions of (kernel, schedule) and identical across runs; recover/goodput are wall-clock measurements of the data-plane runtime and vary run to run",
			"each dead link is one NIC egress queue on node 0; with per-GPU NICs the node stays reachable, so every scenario completes and verifies through the repair plan",
		},
	}
	tp := topo.New(2, 4, topo.A100(), topo.WithNICs(4))
	algo, err := expertAR(2, 4)
	if err != nil {
		return nil, err
	}
	plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		return nil, err
	}
	counts := []int{0, 1, 2, 3}
	if opts.Quick {
		counts = []int{0, 1, 2}
	}
	rows := make([][]string, len(counts))
	err = runCells(opts, len(counts), func(c int) error {
		n := counts[c]
		var sched *fault.Schedule
		if n > 0 {
			sched = &fault.Schedule{}
			for k := 0; k < n; k++ {
				eg := tp.NICEgress(k)
				sched.Events = append(sched.Events, fault.LinkOut(eg, 0))
			}
		}
		res, err := rt.Execute(rt.Config{
			Kernel:       plan.Kernel,
			MicroBatches: 2,
			Faults:       sched,
			Recovery:     rt.RecoveryPolicy{MaxRetries: 3, Backoff: 20 * time.Microsecond},
		})
		if err != nil {
			return fmt.Errorf("dead=%d: %w", n, err)
		}
		opts.Metrics.Add("rt.instances", int64(res.Instances))
		opts.Metrics.Add("rt.replans", int64(len(res.ReplanEvents)))
		verified := "yes"
		if err := res.Verify(); err != nil {
			verified = "NO: " + err.Error()
		}
		completed, abandoned, repair := len(plan.Kernel.Graph.Tasks), 0, 0
		lost := 0
		for _, ev := range res.ReplanEvents {
			completed = ev.CompletedTasks
			abandoned += ev.AbandonedTasks
			repair += ev.RepairTasks
			lost += len(ev.LostChunks)
		}
		retries := 0
		for _, a := range res.Recovery {
			if a.Kind == rt.ActionRetry {
				retries++
			}
		}
		goodput := 0.0
		if s := res.Elapsed.Seconds(); s > 0 {
			goodput = float64(res.Instances) / s
		}
		rows[c] = []string{
			fmt.Sprint(n), fmt.Sprint(len(res.ReplanEvents)), fmt.Sprint(completed),
			fmt.Sprint(abandoned), fmt.Sprint(repair), fmt.Sprint(retries), fmt.Sprint(lost),
			fmt.Sprintf("%.1f", float64(res.Elapsed.Microseconds())/1e3),
			fmt.Sprintf("%.0f", goodput), verified,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
