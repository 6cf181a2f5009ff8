// Package trace derives the paper's resource-utilization metrics from
// simulation results: thread-block counts, communication-time and idle
// ratios (Table 3, §5.4), per-TB time breakdowns (Figs. 2 and 12), and
// link utilization (Table 1).
package trace

import (
	"fmt"
	"strings"

	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sim"
)

// TBReport is one thread block's utilization summary.
type TBReport struct {
	ID    int
	Rank  int
	Label string
	// Occupancy is how long the TB holds SM resources: until its own
	// release for direct kernels (ResCCL releases TBs early), until
	// global completion for interpreted baselines (the kernel exits only
	// when every TB is done).
	Occupancy float64
	// Exec is time spent driving transfers; Sync is rendezvous /
	// dependency blocking while occupying the SM; Idle = Occupancy −
	// Exec (Sync ⊂ Idle: a syncing TB still wastes its SM).
	Exec, Sync, Idle float64
	// Saving is global completion − release: SM time returned to
	// computation by early release (the "Release/Saving" of Fig. 12).
	Saving float64
}

// IdleRatio is Idle/Occupancy.
func (r TBReport) IdleRatio() float64 {
	if r.Occupancy <= 0 {
		return 0
	}
	return r.Idle / r.Occupancy
}

// Utilization summarises one run's TB economics — a row of Table 3.
type Utilization struct {
	Backend   string
	Algorithm string
	// TBs is the per-GPU thread-block count (the paper's "# TB").
	TBs int
	// TotalTBs is the cluster-wide count.
	TotalTBs int
	// CommTime is mean Exec/Occupancy over TBs ("Comm Time").
	CommTime float64
	// AvgIdle and MaxIdle are the mean and max idle ratios.
	AvgIdle, MaxIdle float64
	// Reports holds the per-TB detail (sorted by ID).
	Reports []TBReport
}

// Analyze computes utilization metrics for a completed run of k. The
// per-TB facts come from the kernel, the timings from res; both list
// TBs in ID order.
func Analyze(k *kernel.Kernel, res *sim.Result, backendName string) *Utilization {
	early := k.Mode == kernel.ModeDirect
	u := &Utilization{
		Backend:   backendName,
		Algorithm: k.Name,
		TBs:       k.MaxTBsPerRank(),
		TotalTBs:  k.NTBs(),
		Reports:   make([]TBReport, 0, len(res.TBs)),
	}
	var sumComm, sumIdle float64
	for i, tb := range res.TBs {
		occ := res.Completion
		if early {
			occ = tb.Release
		}
		prog := k.TBs[i]
		rep := TBReport{
			ID:        prog.ID,
			Rank:      int(prog.Rank),
			Label:     prog.Label,
			Occupancy: occ,
			Exec:      tb.Exec,
			Sync:      tb.Sync,
			Idle:      occ - tb.Exec,
			Saving:    res.Completion - tb.Release,
		}
		if rep.Idle < 0 {
			rep.Idle = 0
		}
		u.Reports = append(u.Reports, rep)
		if occ > 0 {
			comm := tb.Exec / occ
			idle := rep.IdleRatio()
			sumComm += comm
			sumIdle += idle
			if idle > u.MaxIdle {
				u.MaxIdle = idle
			}
		}
	}
	if n := float64(len(u.Reports)); n > 0 {
		u.CommTime = sumComm / n
		u.AvgIdle = sumIdle / n
	}
	return u
}

// ExtraChannelIdle returns the mean idle ratio of thread blocks on
// "additional" channels (labels containing ".ch1/" — the manually added
// MSCCL channels of §2.2, Fig. 2(a)), and ok=false if the kernel has
// none.
func (u *Utilization) ExtraChannelIdle() (float64, bool) {
	var sum float64
	n := 0
	for _, r := range u.Reports {
		if strings.Contains(r.Label, ".ch1/") {
			sum += r.IdleRatio()
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// MaxSyncRatio returns the largest Sync/Occupancy over TBs — the
// synchronization-blocking metric of Fig. 2(b).
func (u *Utilization) MaxSyncRatio() float64 {
	m := 0.0
	for _, r := range u.Reports {
		if r.Occupancy > 0 {
			if s := r.Sync / r.Occupancy; s > m {
				m = s
			}
		}
	}
	return m
}

// String renders the utilization like a Table 3 row.
func (u *Utilization) String() string {
	return fmt.Sprintf("%s/%s: #TB=%d comm=%.1f%% avgIdle=%.1f%% maxIdle=%.1f%%",
		u.Backend, u.Algorithm, u.TBs, 100*u.CommTime, 100*u.AvgIdle, 100*u.MaxIdle)
}

// Breakdown is the Fig. 12 per-TB view: sync vs execution time plus the
// early-release saving, for the TBs of one rank (the figures plot rank
// 0's workers).
type Breakdown struct {
	Backend string
	TBs     []TBReport
}

// RankBreakdown extracts the Fig. 12 data for one rank.
func RankBreakdown(u *Utilization, rank int) Breakdown {
	b := Breakdown{Backend: u.Backend}
	for _, r := range u.Reports {
		if r.Rank == rank {
			b.TBs = append(b.TBs, r)
		}
	}
	return b
}
