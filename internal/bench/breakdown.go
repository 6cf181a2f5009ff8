package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
)

// Figure2 reproduces the motivation breakdown: executing custom
// (expert) and synthesized single-node AllReduce on the MSCCL runtime,
// how much of each thread block's lifetime is execution, sync blocking
// and idling — including the near-total idleness of manually added
// extra channels (Fig. 2(a)) and the sync-blocking share (Fig. 2(b)).
func Figure2(opts Options) ([]*Table, error) {
	opts = opts.init()
	buf := int64(512 << 20)
	if opts.Quick {
		buf = 128 << 20
	}
	tp := topo.New(1, 8, topo.A100())
	msccl := backend.NewMSCCL()

	cases := []struct{ label, name string }{
		{"custom (expert mesh AllReduce)", "mesh-allreduce"},
		{"synthesized (TACCL AllReduce)", "synth:taccl-allreduce"},
	}
	tables := make([]*Table, len(cases))
	err := runCells(opts, len(cases), func(c int) error {
		algo, err := expert.BuildOn(cases[c].name, 1, 8)
		if err != nil {
			return err
		}
		plan, err := compile(opts, msccl, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return err
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return err
		}
		u := trace.Analyze(plan.Kernel, res[0], plan.Backend)
		t := &Table{
			ID:     "fig2",
			Title:  fmt.Sprintf("MSCCL primitive time breakdown — %s, single node (8 GPUs), rank 0", cases[c].label),
			Header: []string{"TB", "role", "exec", "sync", "idle"},
		}
		for _, r := range trace.RankBreakdown(u, 0).TBs {
			t.AddRow(fmt.Sprintf("TB%d", r.ID), r.Label,
				pct(r.Exec/r.Occupancy), pct(r.Sync/r.Occupancy), pct(r.IdleRatio()))
		}
		if extra, ok := u.ExtraChannelIdle(); ok {
			t.Notes = append(t.Notes, fmt.Sprintf("extra-channel TBs idle %s of the time (paper: 98.2%%)", pct(extra)))
		}
		t.Notes = append(t.Notes, fmt.Sprintf("max sync-blocking share %s (paper: up to 67.1%%)", pct(u.MaxSyncRatio())))
		tables[c] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// table3Topos are the four cluster shapes of Table 3.
var table3Topos = []struct {
	label       string
	nNodes, gpn int
}{
	{"Topo1 (2×4)", 2, 4},
	{"Topo2 (2×8)", 2, 8},
	{"Topo3 (4×4)", 4, 4},
	{"Topo4 (4×8)", 4, 8},
}

// Table3 compares thread-block counts and utilization between MSCCL and
// ResCCL across the four topologies for expert and synthesized AllReduce
// and AllGather.
func Table3(opts Options) ([]*Table, error) {
	opts = opts.init()
	buf := int64(512 << 20)
	if opts.Quick {
		buf = 128 << 20
	}
	algos := []struct{ label, name string }{
		{"Expert AllReduce", "hm-allreduce"},
		{"Expert AllGather", "hm-allgather"},
		{"Synthesized AllReduce", "synth:taccl-allreduce"},
		{"Synthesized AllGather", "synth:taccl-allgather"},
	}
	bks := []backend.Backend{backend.NewMSCCL(), backend.NewResCCL()}
	// One cell per (algorithm, topology, backend) row of the tables.
	perAlgo := len(table3Topos) * len(bks)
	rows := make([][]string, len(algos)*perAlgo)
	err := runCells(opts, len(rows), func(c int) error {
		a := algos[c/perAlgo]
		shape := table3Topos[(c%perAlgo)/len(bks)]
		b := bks[c%len(bks)]
		tp := topo.New(shape.nNodes, shape.gpn, topo.A100())
		algo, err := expert.BuildOn(a.name, shape.nNodes, shape.gpn)
		if err != nil {
			return err
		}
		plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return fmt.Errorf("table3 %s/%s: %w", shape.label, b.Name(), err)
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return fmt.Errorf("table3 %s/%s: %w", shape.label, b.Name(), err)
		}
		u := trace.Analyze(plan.Kernel, res[0], plan.Backend)
		rows[c] = []string{shape.label, b.Name(), fmt.Sprintf("%d", u.TBs),
			pct(u.CommTime), pct(u.AvgIdle), pct(u.MaxIdle)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out []*Table
	for ai, a := range algos {
		t := &Table{
			ID:     "table3",
			Title:  fmt.Sprintf("TB utilization — %s", a.label),
			Header: []string{"Topology", "Backend", "#TB/GPU", "Comm Time", "Avg Idle", "Max Idle"},
			Rows:   rows[ai*perAlgo : (ai+1)*perAlgo],
		}
		out = append(out, t)
	}
	return out, nil
}

// Figure12 reproduces the per-TB time-cost breakdown on the V100
// cluster: for each worker thread block of rank 0, sync vs execution
// time under MSCCL and ResCCL, plus the SM time ResCCL returns through
// early release.
func Figure12(opts Options) ([]*Table, error) {
	opts = opts.init()
	buf := int64(512 << 20)
	if opts.Quick {
		buf = 128 << 20
	}
	tp := topo.New(2, 8, topo.V100())
	cases := []struct{ label, name string }{
		{"expert-designed (HM AllReduce)", "hm-allreduce"},
		{"synthesized (TACCL AllReduce)", "synth:taccl-allreduce"},
	}
	bks := []backend.Backend{backend.NewMSCCL(), backend.NewResCCL()}
	tables := make([]*Table, len(cases)*len(bks))
	err := runCells(opts, len(tables), func(c int) error {
		cs := cases[c/len(bks)]
		b := bks[c%len(bks)]
		algo, err := expert.BuildOn(cs.name, 2, 8)
		if err != nil {
			return err
		}
		plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return err
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return err
		}
		u := trace.Analyze(plan.Kernel, res[0], plan.Backend)
		t := &Table{
			ID:     "fig12",
			Title:  fmt.Sprintf("Per-TB time breakdown — %s, %s, rank 0 (V100)", cs.label, b.Name()),
			Header: []string{"TB", "role", "exec (ms)", "sync (ms)", "saving (ms)"},
		}
		for _, r := range trace.RankBreakdown(u, 0).TBs {
			t.AddRow(fmt.Sprintf("TB%d", r.ID), r.Label,
				fmt.Sprintf("%.1f", r.Exec*1e3),
				fmt.Sprintf("%.1f", r.Sync*1e3),
				fmt.Sprintf("%.1f", r.Saving*1e3))
		}
		tables[c] = t
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}
