package analyze

import (
	"fmt"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

// The feasibility pass bounds the plan against the α+c·β cost model
// (Eq. 3-5) without simulating it:
//
//   - per-link lower bound: all traffic assigned to link l must cross
//     it serially at full capacity, so no schedule can beat
//     LB(l) = α_min(l) + Σ_t n·chunk/Capacity(l). The pass takes the
//     plan's own critical-path estimate from dag.Graph.Timeline — the one
//     §4.4 recurrence, run over the kernel's echoed pipeline order — and
//     flags links whose floor exceeds it: the plan's epoch structure
//     promises a completion its own wiring cannot deliver.
//
//   - TB over-subscription: a rank needs at most one sending and one
//     receiving TB per distinct peer (that is the paper's occupancy
//     point — state-based allocation shares by endpoint, connection-
//     based splits by connection, both bounded by 2·peers). More TBs
//     than that burn SMs without adding a single concurrent channel.
//
// Both lints are warnings: an infeasible plan still runs correctly,
// just slower than its schedule claims, so gates built on Report.Err
// never reject over them.
func checkFeasibility(v *planView) []Diag {
	var ds []Diag
	g := v.g

	if order := pipelineOrder(v.k); order == nil {
		ds = append(ds, Diag{Code: "link-oversub", Severity: SevInfo,
			Message: "feasibility bounds skipped: kernel carries no pipeline order"})
	} else {
		makespan := g.Timeline(order, 1, dag.WindowChunkBytes, dag.WindowMB).Makespan
		n := float64(dag.WindowMB)
		for l := range g.LinkTasks.Len() { // dense by LinkID: already in link order
			tasks := g.LinkTasks.Row(l)
			if len(tasks) == 0 {
				continue
			}
			capac := g.Topo.Capacity(topo.LinkID(l))
			if capac <= 0 {
				continue
			}
			alpha := g.Path(tasks[0]).Alpha.Seconds()
			for _, t := range tasks[1:] {
				if a := g.Path(t).Alpha.Seconds(); a < alpha {
					alpha = a
				}
			}
			lb := alpha + float64(len(tasks))*n*dag.WindowChunkBytes/capac
			// 0.1% slack absorbs float accumulation-order noise.
			if lb > makespan*1.001 {
				ds = append(ds, Diag{Code: "link-oversub", Severity: SevWarn,
					Message: fmt.Sprintf(
						"link %s: serial α+c·β floor %.3fms for %d tasks exceeds the plan's critical path %.3fms",
						g.Topo.DescribeResource(topo.LinkID(l)), lb*1e3, len(tasks), makespan*1e3)})
			}
		}
	}

	// TB occupancy per rank vs. the 2-TBs-per-peer bound.
	peers := make(map[ir.Rank]map[ir.Rank]bool)
	for _, task := range g.Tasks {
		if peers[task.Src] == nil {
			peers[task.Src] = make(map[ir.Rank]bool)
		}
		if peers[task.Dst] == nil {
			peers[task.Dst] = make(map[ir.Rank]bool)
		}
		peers[task.Src][task.Dst] = true
		peers[task.Dst][task.Src] = true
	}
	// Thread blocks grouped by rank, in rank order.
	tbs := make([]int32, len(v.k.TBs))
	for i := range tbs {
		tbs[i] = int32(i)
	}
	rank := func(i int32) ir.Rank { return v.k.TBs[i].Rank }
	ir.RadixSort(tbs, func(i int32) int { return int(rank(i)) })
	for lo, hi := 0, 0; lo < len(tbs); lo = hi {
		r := rank(tbs[lo])
		for hi = lo + 1; hi < len(tbs) && rank(tbs[hi]) == r; hi++ {
		}
		limit := 2 * len(peers[r])
		if limit == 0 {
			limit = 1
		}
		if hi-lo > limit {
			ds = append(ds, Diag{Code: "tb-oversub", Severity: SevWarn,
				Message: fmt.Sprintf(
					"rank %d runs %d thread blocks for %d peer(s); %d suffice (one send + one recv per peer)",
					r, hi-lo, len(peers[r]), limit)})
		}
	}
	return ds
}
