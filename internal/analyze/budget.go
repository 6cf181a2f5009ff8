package analyze

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// Budget lints are the resource-efficiency half of the analyzer: purely
// static occupancy and memory checks against a configurable envelope.
// They live here (not in analyze/cert) because they need no simulator;
// cert builds its full certificates — lower bounds, gaps, hashes — on
// top of the same computations. Only the callers that act on them run
// them (through cert.BudgetLints): an over-budget plan still runs
// correctly, so the backend compile gate does not.

// Budget lint codes. Budget lints are warnings everywhere (an
// over-budget plan still runs correctly, just wastefully), but the
// replan gate and `-strict` tooling treat them as hard failures — a
// repair plan may relax the optimality gap, never the resource budget.
const (
	// CodeBudgetTB fires when a rank's peak concurrent thread-block
	// occupancy exceeds the SM/channel budget.
	CodeBudgetTB = "budget-tb"
	// CodeBudgetMem fires when a rank's buffer high-water mark exceeds
	// the memory budget.
	CodeBudgetMem = "budget-mem"
)

// Budget is the resource envelope a plan is certified against.
type Budget struct {
	// MaxTBsPerRank caps the peak number of concurrently active thread
	// blocks on any one rank — the SM/channel budget. The default (32)
	// is deliberately generous: an A100 has 108 SMs and NCCL itself
	// runs up to 32 channels, so only a genuinely wasteful plan trips
	// it.
	MaxTBsPerRank int
	// MaxBufferFactor caps the per-rank buffer high-water mark as a
	// multiple of the per-rank payload S (default 2.0: a plan may stage
	// at most one full extra copy).
	MaxBufferFactor float64
}

// DefaultBudget returns the generous default envelope.
func DefaultBudget() Budget {
	return Budget{MaxTBsPerRank: 32, MaxBufferFactor: 2}
}

// Normalize substitutes the DefaultBudget values for zero-value fields.
func (b Budget) Normalize() Budget {
	d := DefaultBudget()
	if b.MaxTBsPerRank <= 0 {
		b.MaxTBsPerRank = d.MaxTBsPerRank
	}
	if b.MaxBufferFactor <= 0 {
		b.MaxBufferFactor = d.MaxBufferFactor
	}
	return b
}

// BudgetLints statically checks the plan against the budget — no
// simulation — and returns SevWarn diagnostics for violations.
// Non-positive bufferBytes and chunkBytes take the certification
// defaults (64 MiB, 1 MiB); a zero-value budget takes DefaultBudget.
func BudgetLints(k *kernel.Kernel, tp *topo.Topology, bufferBytes, chunkBytes int64, b Budget) []Diag {
	if k == nil || k.Graph == nil || tp == nil {
		return nil
	}
	if bufferBytes <= 0 {
		bufferBytes = 64 << 20
	}
	if chunkBytes <= 0 {
		chunkBytes = simcost.DefaultChunkBytes
	}
	b = b.Normalize()
	var ds []Diag
	peakTBs, _ := PlanOccupancy(k, bufferBytes, chunkBytes)
	if peakTBs > b.MaxTBsPerRank {
		ds = append(ds, Diag{Code: CodeBudgetTB, Severity: SevWarn,
			Message: fmt.Sprintf(
				"peak concurrent thread blocks per rank %d exceeds the SM/channel budget %d",
				peakTBs, b.MaxTBsPerRank)})
	}
	budgetBytes := int64(b.MaxBufferFactor * float64(bufferBytes))
	if peak := BufferHighWater(k, bufferBytes); budgetBytes > 0 && peak > budgetBytes {
		ds = append(ds, Diag{Code: CodeBudgetMem, Severity: SevWarn,
			Message: fmt.Sprintf(
				"per-rank buffer high-water mark %d bytes exceeds the budget %d bytes (%.2g× payload)",
				peak, budgetBytes, b.MaxBufferFactor)})
	}
	return ds
}

// PlanOccupancy replays the §4.4 window recurrence (dag.Graph.Timeline,
// over the kernel's echoed pipeline order) with the protocol tier's α
// scaling and wire-byte inflation applied, derives each thread block's
// activity window [first task start, last task finish], and sweeps
// per-rank concurrency. It returns the busiest rank's peak count of
// concurrently active thread blocks and the dead-resource ratio:
// 1 − Σ busy / Σ activity span over all thread blocks (0 when the plan
// keeps every reserved TB streaming, → 1 when TBs mostly sit blocked).
// Baseline kernels carry no pipeline order (TaskPos is nil); for those
// every TB is live for the whole run, so the static per-rank TB count is
// the honest answer and the idle ratio is reported as zero (unknowable
// without a schedule).
func PlanOccupancy(k *kernel.Kernel, bufferBytes, chunkBytes int64) (peakTBs int, idleRatio float64) {
	g := k.Graph
	order := pipelineOrder(k)
	if order == nil || len(k.SendTB) != len(g.Tasks) || len(k.RecvTB) != len(g.Tasks) {
		return k.MaxTBsPerRank(), 0
	}

	params := simcost.Params(k.Protocol)
	plan := simcost.PlanFor(bufferBytes, params.EffectiveChunk(chunkBytes), g.Algo.NChunks)
	n := float64(plan.NMicroBatches)
	tl := g.Timeline(order, params.AlphaFactor, plan.ChunkBytes/params.BWFactor, plan.NMicroBatches)

	// TB activity windows: a TB is reserved from its first task's start
	// to its last task's finish; its busy time is the transfer work of
	// its tasks.
	type window struct {
		lo, hi float64
		busy   float64
		live   bool
	}
	wins := make([]window, len(k.TBs))
	account := func(tb int, t ir.TaskID) {
		if tb < 0 || tb >= len(wins) {
			return
		}
		w := &wins[tb]
		iv := tl.PerTask[t]
		if !w.live || iv.Start < w.lo {
			w.lo = iv.Start
		}
		if !w.live || iv.End > w.hi {
			w.hi = iv.End
		}
		w.busy += float64(n * tl.PerInst[t])
		w.live = true
	}
	for t := range g.Tasks {
		account(k.SendTB[t], ir.TaskID(t))
		account(k.RecvTB[t], ir.TaskID(t))
	}

	// Per-rank concurrency sweep: +1 at window open, −1 at close, with
	// closes processed before opens at equal times so back-to-back
	// windows don't count as overlapping. Live TBs are bucketed by rank
	// and only each rank's events are sorted.
	type event struct {
		at    float64
		delta int
	}
	tbs := make([]int32, 0, len(wins))
	totalBusy, totalSpan := 0.0, 0.0
	for i, w := range wins {
		if !w.live {
			continue
		}
		tbs = append(tbs, int32(i))
		span := w.hi - w.lo
		busy := w.busy
		if busy > span {
			busy = span // replay slack; a TB can't be busier than live
		}
		totalBusy += busy
		totalSpan += span
	}
	rank := func(i int32) int { return int(k.TBs[i].Rank) }
	ir.RadixSort(tbs, rank)
	var events []event
	peak := 0
	for lo, hi := 0, 0; lo < len(tbs); lo = hi {
		events = events[:0]
		for hi = lo; hi < len(tbs) && rank(tbs[hi]) == rank(tbs[lo]); hi++ {
			w := wins[tbs[hi]]
			events = append(events, event{w.lo, +1}, event{w.hi, -1})
		}
		slices.SortFunc(events, func(a, b event) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta))
		})
		cur := 0
		for _, e := range events {
			cur += e.delta
			peak = max(peak, cur)
		}
	}
	if peak == 0 {
		peak = k.MaxTBsPerRank()
	}
	idle := 0.0
	if totalSpan > 0 {
		idle = 1 - totalBusy/totalSpan
		if idle < 0 {
			idle = 0
		}
		if idle > 1 {
			idle = 1
		}
	}
	return peak, idle
}

// BufferHighWater returns the busiest rank's buffer high-water mark:
// the number of distinct chunks ever resident on the rank (initially
// held under the operator's precondition, or delivered by a task)
// times the chunk's buffer share. This is exactly what talloc must
// reserve — chunks live at isolated addresses for the whole run.
func BufferHighWater(k *kernel.Kernel, bufferBytes int64) int64 {
	g := k.Graph
	a := g.Algo
	if a.NChunks <= 0 || a.NRanks <= 0 {
		return 0
	}
	perChunk := (bufferBytes + int64(a.NChunks) - 1) / int64(a.NChunks)
	// Deliveries by destination rank; a rank's resident chunks are its
	// initial holds and its deliveries, each counted once (seen[c] is
	// the last rank, plus one, that counted chunk c).
	dsts := make([]int32, len(g.Tasks))
	for t := range dsts {
		dsts[t] = int32(t)
	}
	ir.RadixSort(dsts, func(t int32) int { return int(g.Tasks[t].Dst) })
	member := make([]bool, a.NRanks)
	if a.Group != nil {
		// Group collectives only touch member ranks' buffers.
		for _, r := range a.Group {
			if r >= 0 && int(r) < a.NRanks {
				member[r] = true
			}
		}
	} else {
		for r := range member {
			member[r] = true
		}
	}
	seen := make([]int, a.NChunks)
	var peak int64
	for r, next := 0, 0; r < a.NRanks; r++ {
		var held int64
		hold := func(c ir.ChunkID) {
			if seen[c] != r+1 {
				seen[c] = r + 1
				held++
			}
		}
		if member[r] {
			for c := 0; c < a.NChunks; c++ {
				if dag.AlgoHolds(a, ir.Rank(r), ir.ChunkID(c)) {
					hold(ir.ChunkID(c))
				}
			}
		}
		for ; next < len(dsts) && int(g.Tasks[dsts[next]].Dst) == r; next++ {
			hold(g.Tasks[dsts[next]].Chunk)
		}
		peak = max(peak, held*perChunk)
	}
	return peak
}
