// Package cert is the static resource-efficiency certifier: where
// internal/analyze proves a compiled plan *safe* (no deadlock, no
// hazard), cert proves — or quantifies how far the plan is from — the
// paper's actual claim: near-optimal completion time without
// over-subscribing SMs, channels or buffers.
//
// For each compiled plan the certifier computes an α–β lower bound on
// any execution of that plan under the simulator's cost model (and,
// for pristine collectives, on any plan implementing the operator at
// all — an information-theoretic min-cut term), certifies the plan's
// simulated completion against it, and emits a canonical sha256-hashed
// Certificate carrying:
//
//   - the optimality gap (simulated completion vs. the lower bound);
//   - the per-rank peak concurrent thread-block occupancy over the
//     schedule's activity windows, vs. a configurable SM/channel budget;
//   - the per-rank buffer high-water mark (chunk residency), vs. a
//     configurable memory budget;
//   - the dead/idle-resource ratio (thread-block busy time over the
//     activity spans the schedule reserves).
//
// Budget violations become analyze.Diag lints (SevWarn) that
// `ressclc -vet -budget/-max-gap`, the tune sweep's candidate pruning,
// the serve analyze endpoint and the replan gate each compute through
// BudgetLints — SCCL's cheap per-collective lower bounds and GC3's
// compiler-resident checking, turned into machine-checkable
// certificates.
package cert

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
)

// Options parameterise a certification.
type Options struct {
	// BufferBytes is the per-rank payload S the certificate is issued
	// for (default 64 MiB — the bandwidth-saturated regime the paper's
	// Table 3 reports).
	BufferBytes int64
	// ChunkBytes is the target transfer chunk size (default 1 MiB,
	// matching core.Options; the protocol tier's cap applies on top).
	ChunkBytes int64
	// Budget is the resource envelope; zero-value fields take the
	// analyze.DefaultBudget values.
	Budget analyze.Budget
}

func (o Options) withDefaults() Options {
	if o.BufferBytes <= 0 {
		o.BufferBytes = 64 << 20
	}
	if o.ChunkBytes <= 0 {
		o.ChunkBytes = simcost.DefaultChunkBytes
	}
	o.Budget = o.Budget.Normalize()
	return o
}

// Certificate is the canonical, hashable record of one certification.
// All time fields are microseconds rounded to 3 decimals and ratios are
// rounded, so the canonical JSON (and therefore the hash) is stable
// across runs and platforms given the deterministic simulator.
type Certificate struct {
	// Kernel, Topology and Protocol identify the certified plan.
	Kernel   string `json:"kernel"`
	Topology string `json:"topology"`
	Protocol string `json:"protocol"`
	NRanks   int    `json:"n_ranks"`
	// BufferBytes and ChunkBytes echo the certification point.
	BufferBytes int64 `json:"buffer_bytes"`
	ChunkBytes  int64 `json:"chunk_bytes"`
	// CompletionUS is the plan's simulated completion.
	CompletionUS float64 `json:"completion_us"`
	// LowerBoundUS = max(LatencyLBUS, BandwidthLBUS): no execution of
	// this plan under the cost model can finish sooner.
	LowerBoundUS  float64 `json:"lower_bound_us"`
	LatencyLBUS   float64 `json:"latency_lb_us"`
	BandwidthLBUS float64 `json:"bandwidth_lb_us"`
	// GapPct is 100·(CompletionUS/LowerBoundUS − 1) — the optimality
	// gap. Non-negative by construction of the bound.
	GapPct float64 `json:"gap_pct"`
	// PeakTBsPerRank is the busiest rank's peak count of concurrently
	// active thread blocks over the schedule's activity windows;
	// BudgetTBsPerRank is the budget it was judged against.
	PeakTBsPerRank   int `json:"peak_tbs_per_rank"`
	BudgetTBsPerRank int `json:"budget_tbs_per_rank"`
	// PeakBufferBytes is the busiest rank's buffer high-water mark
	// (distinct resident chunks × chunk size); BudgetBufferBytes the
	// budget (MaxBufferFactor × S).
	PeakBufferBytes   int64 `json:"peak_buffer_bytes"`
	BudgetBufferBytes int64 `json:"budget_buffer_bytes"`
	// IdleRatio is the dead-resource ratio: the fraction of the
	// schedule's reserved thread-block activity spans spent idle
	// (blocked on peers, dependencies or link turns).
	IdleRatio float64 `json:"idle_ratio"`
	// Hash is the sha256 of the certificate's canonical JSON with this
	// field empty.
	Hash string `json:"hash"`
}

// canonical returns the field-ordered JSON the hash covers.
func (c *Certificate) canonical() []byte {
	cc := *c
	cc.Hash = ""
	data, err := json.Marshal(&cc)
	if err != nil {
		// A struct of plain values cannot fail to marshal.
		panic(err)
	}
	return data
}

// ComputeHash returns the sha256 hex digest of the canonical JSON.
func (c *Certificate) ComputeHash() string {
	sum := sha256.Sum256(c.canonical())
	return hex.EncodeToString(sum[:])
}

// MarshalIndent renders the certificate as stable, indented JSON.
func (c *Certificate) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Certify simulates the plan at the certification point and certifies
// the resulting completion. The simulator is deterministic, so the
// certificate (and its hash) is reproducible.
func Certify(k *kernel.Kernel, tp *topo.Topology, opts Options) (*Certificate, error) {
	if k == nil || k.Graph == nil || tp == nil {
		return nil, fmt.Errorf("cert: nil kernel, graph or topology")
	}
	opts = opts.withDefaults()
	res, err := sim.Run(sim.Config{
		Topo: tp, Kernel: k, BufferBytes: opts.BufferBytes, ChunkBytes: opts.ChunkBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("cert: simulate %q: %w", k.Name, err)
	}
	return FromCompletion(k, tp, opts, res.Completion)
}

// FromCompletion certifies an already-measured completion (seconds) —
// the tune sweep's path, which has just simulated every cell and need
// not pay for a second run.
func FromCompletion(k *kernel.Kernel, tp *topo.Topology, opts Options, completion float64) (*Certificate, error) {
	if k == nil || k.Graph == nil || tp == nil {
		return nil, fmt.Errorf("cert: nil kernel, graph or topology")
	}
	opts = opts.withDefaults()
	lb, latLB, bwLB := LowerBound(k, tp, opts.BufferBytes, opts.ChunkBytes)
	if lb <= 0 {
		return nil, fmt.Errorf("cert: degenerate lower bound for %q (empty plan?)", k.Name)
	}
	peakTBs, idle := analyze.PlanOccupancy(k, opts.BufferBytes, opts.ChunkBytes)
	peakBuf := analyze.BufferHighWater(k, opts.BufferBytes)
	gap := 100 * (completion/lb - 1)
	if gap < 0 && !BelowBound(completion, lb) {
		gap = 0 // float noise at the bound itself
	}
	c := &Certificate{
		Kernel:            k.Name,
		Topology:          tp.String(),
		Protocol:          k.Protocol.String(),
		NRanks:            k.Graph.Algo.NRanks,
		BufferBytes:       opts.BufferBytes,
		ChunkBytes:        opts.ChunkBytes,
		CompletionUS:      roundTo(completion*1e6, 3),
		LowerBoundUS:      roundTo(lb*1e6, 3),
		LatencyLBUS:       roundTo(latLB*1e6, 3),
		BandwidthLBUS:     roundTo(bwLB*1e6, 3),
		GapPct:            roundTo(gap, 2),
		PeakTBsPerRank:    peakTBs,
		BudgetTBsPerRank:  opts.Budget.MaxTBsPerRank,
		PeakBufferBytes:   peakBuf,
		BudgetBufferBytes: int64(opts.Budget.MaxBufferFactor * float64(opts.BufferBytes)),
		IdleRatio:         roundTo(idle, 4),
	}
	c.Hash = c.ComputeHash()
	return c, nil
}

// roundTo rounds x to d decimal places, canonicalising -0.
func roundTo(x float64, d int) float64 {
	p := math.Pow(10, float64(d))
	r := math.Round(x*p) / p
	if r == 0 {
		return 0
	}
	return r
}
