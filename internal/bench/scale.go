package bench

import (
	"fmt"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/topo"
)

// scalePoints is the full rank sweep: 128 to 4096 ranks of hierarchical
// AllReduce on a rail-optimized fabric, plus a leaf/spine Clos point at
// the largest scale for comparison.
var scalePoints = []struct {
	nodes, gpn, spines int
	rail               bool
}{
	{16, 8, 8, true},
	{64, 8, 8, true},
	{128, 8, 8, true},
	{256, 8, 16, true},
	{512, 8, 16, true},
	{512, 8, 16, false},
}

// Scale measures simulator throughput against cluster size: for each
// rank count it compiles the hierarchical AllReduce, simulates it, and
// reports processed events, wall time, and events/second — the scaling
// behavior the incremental max-min solver and flat arenas exist for.
// Cells run serially even under -parallel: this experiment times the
// simulator itself, and concurrent cells would contend for cores and
// corrupt the throughput columns. Wall-time and events/sec columns are
// measured and vary run to run (like the Figure 10a phase timings);
// every other column is deterministic.
func Scale(opts Options) ([]*Table, error) {
	opts = opts.init()
	points := scalePoints
	if opts.Quick {
		points = points[:2]
	}
	const buf = 64 << 20

	t := &Table{
		ID:     "scale",
		Title:  "Simulator scale sweep: hierarchical AllReduce, 128–4096 ranks",
		Header: []string{"Ranks", "Shape", "Fabric", "Transfers", "Sim events", "sim time (wall ms)", "throughput (wall ev/s)", "Completion (ms)"},
		Notes: []string{
			"hier-allreduce (intra-node mesh × inter-node binomial rail trees), 64MiB per rank",
			"wall and events/s are measured on this machine and vary run to run",
		},
	}
	for _, pt := range points {
		algo, err := expert.Build("hier-allreduce", pt.nodes, pt.gpn)
		if err != nil {
			return nil, fmt.Errorf("scale %d×%d: %w", pt.nodes, pt.gpn, err)
		}
		tp := topo.NewClos(pt.nodes, pt.gpn, topo.A100(), pt.spines)
		if pt.rail {
			tp = topo.NewRail(pt.nodes, pt.gpn, topo.A100(), pt.spines)
		}
		plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return nil, fmt.Errorf("scale %d×%d: %w", pt.nodes, pt.gpn, err)
		}
		start := time.Now()
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return nil, fmt.Errorf("scale %d×%d: %w", pt.nodes, pt.gpn, err)
		}
		wall := time.Since(start)
		t.AddRow(
			fmt.Sprintf("%d", tp.NRanks()),
			fmt.Sprintf("%d×%d", pt.nodes, pt.gpn),
			fmt.Sprintf("%s/%d", tp.Fabric().Kind, pt.spines),
			fmt.Sprintf("%d", len(algo.Transfers)),
			fmt.Sprintf("%d", res[0].Events),
			fmt.Sprintf("%.1f", float64(wall.Microseconds())/1e3),
			fmt.Sprintf("%.0f", float64(res[0].Events)/wall.Seconds()),
			fmt.Sprintf("%.3f", res[0].Completion*1e3),
		)
	}
	return []*Table{t}, nil
}
