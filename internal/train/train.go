// Package train is the end-to-end distributed training model of §5.5: a
// Megatron-LM-style analytic iteration model for GPT-3 (tensor
// parallelism) and T5 (data parallelism) whose collective communication
// runs through the simulated backends. Throughput differences between
// backends therefore stem purely from communication execution, matching
// the paper's methodology (identical model, parallelism and cluster
// settings across backends).
package train

import (
	"context"
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/topo"
)

// ModelConfig describes one transformer model.
type ModelConfig struct {
	Name string
	// Params is the parameter count.
	Params float64
	// Layers, Hidden and Seq parameterise per-layer activation traffic.
	Layers, Hidden, Seq int
}

// The paper's model zoo (§5.5): T5 220M–3B trained with data
// parallelism, GPT-3 6.7B–45B with tensor parallelism.
var (
	T5_220M = ModelConfig{Name: "T5-220M", Params: 220e6, Layers: 12, Hidden: 768, Seq: 512}
	T5_770M = ModelConfig{Name: "T5-770M", Params: 770e6, Layers: 24, Hidden: 1024, Seq: 512}
	T5_3B   = ModelConfig{Name: "T5-3B", Params: 3e9, Layers: 24, Hidden: 2048, Seq: 512}

	GPT3_6_7B = ModelConfig{Name: "GPT3-6.7B", Params: 6.7e9, Layers: 32, Hidden: 4096, Seq: 2048}
	GPT3_13B  = ModelConfig{Name: "GPT3-13B", Params: 13e9, Layers: 40, Hidden: 5120, Seq: 2048}
	GPT3_22B  = ModelConfig{Name: "GPT3-22B", Params: 22e9, Layers: 48, Hidden: 6144, Seq: 2048}
	GPT3_45B  = ModelConfig{Name: "GPT3-45B", Params: 45e9, Layers: 64, Hidden: 7680, Seq: 2048}
)

// Config describes one training deployment (Table 2's training config).
type Config struct {
	Model ModelConfig
	// GlobalBatch is the per-iteration sample count (16 on two servers,
	// 32 on four, per §5.5).
	GlobalBatch int
	// TP and DP are the tensor- and data-parallel widths; TP·DP must
	// equal NNodes·GPN.
	TP, DP int
	// NNodes and GPN shape the cluster.
	NNodes, GPN int
	// Profile is the hardware profile (default A100).
	Profile *topo.Profile
	// PeakFLOPS and MFU model per-GPU compute (defaults: 312 TFLOPS
	// bf16, 45% utilization). BytesPerElem is the gradient/activation
	// element size (default 2, fp16/bf16).
	PeakFLOPS    float64
	MFU          float64
	BytesPerElem int
	// OverlapFraction is how much of the data-parallel gradient
	// all-reduce Megatron hides behind backward compute (default 0.8 of
	// the backward pass: bucketed DDP overlaps nearly the whole
	// backward).
	OverlapFraction float64
	// SMsPerGPU models the streaming-multiprocessor budget each GPU has
	// (default 108, A100). Communication thread blocks occupy SMs, so
	// compute overlapped with communication runs proportionally slower
	// — the paper's core resource-contention effect (§1).
	SMsPerGPU int
	// FaultRate injects a seeded fault schedule into every simulated
	// collective: FaultRate events (link degradations/outages, NIC
	// flaps, stragglers) land within each collective's clean completion
	// window. 0 disables injection.
	FaultRate int
	// FaultSeed seeds the fault schedules (default 1), making faulted
	// runs reproducible.
	FaultSeed int64
	// Faults, when non-nil, injects this explicit schedule instead of a
	// generated one (ressclsim -fault-spec). Its resource IDs name the
	// full-cluster topology, so it applies to cluster-wide collectives
	// (the data-parallel gradient all-reduce); TP-group collectives run
	// on a single-server sub-topology with its own resource namespace
	// and are not faulted. Mutually exclusive with FaultRate.
	Faults *fault.Schedule
	// Protocol forces a transport protocol tier (LL, LL128, Simple) on
	// every collective the iteration issues (ressclsim -protocol). The
	// zero value lets exec resolve it as for any call: the NCCL backend
	// picks the tier real NCCL would by buffer size (sim.SelectProtocol),
	// the others run at Simple-tier cost.
	Protocol ir.Protocol
	// Trace, when non-nil, collects compile-stage spans and the
	// simulated timeline of every collective the iteration issues
	// (ressclsim -trace-out). Faulted collectives record the faulted
	// rerun, the one whose time enters the iteration.
	Trace *obs.Trace
	// Metrics, when non-nil, accumulates plan-cache and simulator
	// counters and per-link busy-time gauges (ressclsim -metrics-json).
	Metrics *obs.Metrics
}

func (c Config) withDefaults() (Config, error) {
	if c.Profile == nil {
		p := topo.A100()
		c.Profile = &p
	}
	if c.PeakFLOPS <= 0 {
		c.PeakFLOPS = 312e12
	}
	if c.MFU <= 0 {
		c.MFU = 0.45
	}
	if c.BytesPerElem <= 0 {
		c.BytesPerElem = 2
	}
	if c.OverlapFraction <= 0 {
		c.OverlapFraction = 0.8
	}
	if c.SMsPerGPU <= 0 {
		c.SMsPerGPU = 108
	}
	if c.FaultSeed == 0 {
		c.FaultSeed = 1
	}
	if c.Faults != nil && c.FaultRate > 0 {
		return c, fmt.Errorf("train: Faults and FaultRate are mutually exclusive")
	}
	if c.TP < 1 {
		c.TP = 1
	}
	if c.DP < 1 {
		c.DP = 1
	}
	nGPU := c.NNodes * c.GPN
	if c.TP*c.DP != nGPU {
		return c, fmt.Errorf("train: TP(%d)·DP(%d) != %d GPUs", c.TP, c.DP, nGPU)
	}
	if c.TP > 1 && c.TP != c.GPN {
		return c, fmt.Errorf("train: tensor parallelism (%d) must span exactly one server (%d GPUs)", c.TP, c.GPN)
	}
	if c.GlobalBatch < 1 {
		return c, fmt.Errorf("train: global batch must be positive")
	}
	return c, nil
}

// Result reports one backend's simulated training iteration.
type Result struct {
	Backend   string
	Model     string
	IterTime  float64 // seconds
	Compute   float64
	TPComm    float64 // total exposed tensor-parallel communication
	DPComm    float64 // raw data-parallel all-reduce time
	ExposedDP float64 // DP time left after overlap with backward
	// SMPenalty is the extra compute time caused by communication TBs
	// occupying SMs during the overlapped window (§1's contention).
	SMPenalty float64
	// CommTBs is the per-GPU thread-block footprint of the gradient
	// all-reduce.
	CommTBs int
	// Throughput is samples/second — Fig. 13's metric.
	Throughput float64
}

// Simulate runs one training iteration under the given backend.
func Simulate(cfg Config, b backend.Backend) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	m := cfg.Model
	nGPU := cfg.NNodes * cfg.GPN
	tokens := float64(cfg.GlobalBatch * m.Seq)

	// Compute: 6 FLOPs per parameter per token (forward + backward),
	// spread across all GPUs at the modelled MFU.
	compute := 6 * m.Params * tokens / (float64(nGPU) * cfg.PeakFLOPS * cfg.MFU)

	r := &Result{Backend: b.Name(), Model: m.Name, Compute: compute}

	// Tensor parallelism: per layer, Megatron issues two activation
	// all-reduces in forward and two in backward over the TP group
	// (one server). Activation bytes = batch/DP × seq × hidden × elem.
	if cfg.TP > 1 {
		name, _ := expert.Default(ir.OpAllReduce, 1, cfg.TP)
		algo, err := expert.BuildOn(name, 1, cfg.TP)
		if err != nil {
			return nil, err
		}
		actBytes := int64(cfg.GlobalBatch/cfg.DP) * int64(m.Seq) * int64(m.Hidden) * int64(cfg.BytesPerElem)
		if actBytes < 1<<20 {
			actBytes = 1 << 20
		}
		// Explicit fault specs name full-cluster resources, so the TP
		// sub-topology never sees them (see Config.Faults).
		one, _, err := allReduce(b, cfg, topo.New(1, cfg.TP, *cfg.Profile), "tp", []*ir.Algorithm{algo}, actBytes, nil)
		if err != nil {
			return nil, fmt.Errorf("train: TP comm: %w", err)
		}
		r.TPComm = one * float64(4*m.Layers)
	}

	// Data parallelism: one gradient all-reduce of 2·P/TP bytes per
	// iteration over each DP group. With TP>1 the DP groups are
	// cross-server process groups (one GPU per server per local index)
	// that run *concurrently* on the real cluster, contending for the
	// shared NICs — simulated as concurrent sessions.
	if cfg.DP > 1 {
		gradBytes := int64(m.Params * float64(cfg.BytesPerElem) / float64(cfg.TP))
		groups, err := dpGroups(cfg)
		var dp float64
		var tbs int
		if err == nil {
			dp, tbs, err = allReduce(b, cfg, topo.New(cfg.NNodes, cfg.GPN, *cfg.Profile), "dp", groups, gradBytes, cfg.Faults)
		}
		if err != nil {
			return nil, fmt.Errorf("train: DP comm: %w", err)
		}
		r.DPComm = dp
		r.CommTBs = tbs
		// Backward is ≈2/3 of compute; a fraction of it hides the
		// gradient all-reduce — but the hidden window runs compute on
		// fewer SMs, since every communication TB occupies one (§1).
		hidden := cfg.OverlapFraction * (2.0 / 3.0) * compute
		if dp < hidden {
			hidden = dp
		}
		r.ExposedDP = dp - hidden
		tbFrac := float64(tbs) / float64(cfg.SMsPerGPU)
		if tbFrac > 0.9 {
			tbFrac = 0.9
		}
		r.SMPenalty = hidden * tbFrac / (1 - tbFrac)
	}

	r.IterTime = compute + r.TPComm + r.ExposedDP + r.SMPenalty
	r.Throughput = float64(cfg.GlobalBatch) / r.IterTime
	return r, nil
}

// dpGroups returns the data-parallel gradient all-reduce's algorithms
// on the full cluster: the default AllReduce (expert.Default) over
// every GPU without tensor parallelism, else one ring per local GPU
// index across the servers. The NCCL backend ignores them and runs its
// own rings.
func dpGroups(cfg Config) ([]*ir.Algorithm, error) {
	if cfg.TP == 1 {
		name, _ := expert.Default(ir.OpAllReduce, cfg.NNodes, cfg.GPN)
		algo, err := expert.BuildOn(name, cfg.NNodes, cfg.GPN)
		return []*ir.Algorithm{algo}, err
	}
	ring, err := expert.RingAllReduce(cfg.DP)
	if err != nil {
		return nil, err
	}
	groups := make([]*ir.Algorithm, cfg.TP)
	for l := range groups {
		ranks := make([]ir.Rank, cfg.DP)
		for node := range ranks {
			ranks[node] = ir.Rank(node*cfg.GPN + l)
		}
		if groups[l], err = ir.Embed(ring, ranks, cfg.NNodes*cfg.GPN); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// allReduce simulates one AllReduce of bufBytes per rank under b on
// each group algorithm, side by side on tp: one group runs alone,
// several share the fabric. It returns the completion time and the
// largest per-GPU TB footprint. A positive FaultRate reruns the
// collective under a seeded schedule landing within the clean
// completion window; a non-nil spec reruns it under that explicit
// schedule instead. With a trace configured, the final (possibly
// faulted) run records one timeline per group, named after label.
func allReduce(b backend.Backend, cfg Config, tp *topo.Topology, label string, groups []*ir.Algorithm, bufBytes int64, spec *fault.Schedule) (float64, int, error) {
	req := exec.Request{Backend: b, Topo: tp, RecordTimeline: cfg.Trace != nil, Trace: cfg.Trace, Metrics: cfg.Metrics}
	calls := make([]exec.Call, len(groups))
	outs := make([]exec.Outcome, len(groups))
	tbs, nTBs := 0, 0
	for i, algo := range groups {
		calls[i] = exec.Call{Algo: algo, BufferBytes: bufBytes, Protocol: cfg.Protocol}
		var err error
		if outs[i], err = exec.Compile(context.Background(), req, calls[i]); err != nil {
			return 0, 0, err
		}
		tbs = max(tbs, outs[i].Plan.Kernel.MaxTBsPerRank())
		nTBs += len(outs[i].Plan.Kernel.TBs)
	}
	// Scale the chunk up for very large gradients (as real libraries
	// do), capping the simulation at 64 micro-batches: training buffers
	// are deep in the bandwidth-bound regime where chunk granularity no
	// longer changes the outcome. A lone group counts its compiled
	// plan's chunks, several count their algorithm's; the NCCL backend
	// substitutes its own rings, so for it the two differ.
	nChunks := groups[0].NChunks
	if len(groups) == 1 {
		nChunks = outs[0].Plan.Algo.NChunks
	}
	req.ChunkBytes = max(1<<20, bufBytes/int64(nChunks*64))
	if err := exec.Simulate(req, calls, outs); err != nil {
		return 0, 0, err
	}
	if spec == nil && cfg.FaultRate > 0 {
		spec = fault.Within(tp, cfg.FaultSeed, cfg.FaultRate, completion(outs), nTBs)
	}
	if spec != nil {
		req.Faults = spec
		if err := exec.Simulate(req, calls, outs); err != nil {
			return 0, 0, err
		}
	}
	if cfg.Trace != nil {
		for i, o := range outs {
			name := label
			if len(outs) > 1 {
				name = fmt.Sprintf("%s[%d]", label, i)
			}
			cfg.Trace.AddTimeline(o.Timeline(name+"/"+o.Plan.Backend+"/"+o.Plan.Algo.Name, tp))
		}
	}
	return completion(outs), tbs, nil
}

// completion is when the last of a run's sessions finished.
func completion(outs []exec.Outcome) float64 {
	last := 0.0
	for _, o := range outs {
		last = max(last, o.Result.Completion)
	}
	return last
}

// Compare runs the same configuration under several backends and
// returns results keyed by backend name.
func Compare(cfg Config, backends ...backend.Backend) (map[string]*Result, error) {
	out := make(map[string]*Result, len(backends))
	for _, b := range backends {
		res, err := Simulate(cfg, b)
		if err != nil {
			return nil, fmt.Errorf("train: %s: %w", b.Name(), err)
		}
		out[b.Name()] = res
	}
	return out, nil
}
