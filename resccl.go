// Package resccl is a reproduction of "ResCCL: Resource-Efficient
// Scheduling for Collective Communication" (SIGCOMM 2025): a collective
// communication library backend that compiles algorithm logic — written
// in the ResCCLang DSL or built programmatically — into resource-
// efficient execution plans via primitive-level HPDS scheduling,
// flexible state-based thread-block allocation and lightweight kernel
// generation, and executes them on a deterministic flow-level cluster
// simulator standing in for the GPU fabric.
//
// The headline entry point is the Communicator:
//
//	tp := resccl.NewTopology(2, 8, resccl.A100())
//	comm, err := resccl.NewCommunicator(tp)
//	run, err := comm.AllReduce(1 << 30) // 1 GiB per rank
//	fmt.Println(run.AlgoBandwidth())    // bytes/s
//
// Backends other than ResCCL (the NCCL-like and MSCCL-like baselines of
// the paper) are available through WithBackend for comparisons, and
// custom algorithms run through RunAlgorithm or CompileLang.
package resccl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/lang"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/tune"
)

// Op identifies a collective operator.
type Op = ir.OpType

// Collective operators.
const (
	AllGather     = ir.OpAllGather
	AllReduce     = ir.OpAllReduce
	ReduceScatter = ir.OpReduceScatter
	Broadcast     = ir.OpBroadcast
	AllToAll      = ir.OpAllToAll
)

// Protocol is an NCCL-style transport protocol tier. LL trades half the
// wire bandwidth for the lowest per-chunk latency, LL128 keeps 120/128
// of the bandwidth at moderate latency, Simple runs at full bandwidth
// with the full handshake cost. ProtoAuto (the default) lets the NCCL
// backend pick by message size, as the real library does; force a tier
// with WithProtocol.
type Protocol = ir.Protocol

// Protocol tiers.
const (
	ProtoAuto   = ir.ProtoAuto
	ProtoLL     = ir.ProtoLL
	ProtoLL128  = ir.ProtoLL128
	ProtoSimple = ir.ProtoSimple
)

// Algorithm is a collective communication algorithm: the data-transfer
// plan between GPUs, independent of execution policy.
type Algorithm = ir.Algorithm

// Rank identifies a GPU within the communicator.
type Rank = ir.Rank

// Topology describes the simulated cluster fabric.
type Topology = topo.Topology

// Profile bundles hardware constants for one GPU generation.
type Profile = topo.Profile

// A100 returns the paper's primary testbed profile (A100 + NVSwitch +
// 200 Gbps RoCE).
func A100() Profile { return topo.A100() }

// V100 returns the heterogeneous-cluster profile (V100 + 100 Gbps RoCE).
func V100() Profile { return topo.V100() }

// H100 returns a DGX-H100 class profile (450 GB/s NVSwitch, 400 Gbps
// InfiniBand).
func H100() Profile { return topo.H100() }

// NewTopology builds a cluster of nNodes servers × gpusPerNode GPUs.
func NewTopology(nNodes, gpusPerNode int, p Profile) *Topology {
	return topo.New(nNodes, gpusPerNode, p)
}

// CompileLang compiles ResCCLang source into an Algorithm.
func CompileLang(src string) (*Algorithm, error) { return lang.Compile(src) }

// BackendKind selects the execution backend.
type BackendKind int

// Available backends.
const (
	// BackendResCCL is the paper's backend: HPDS scheduling, state-based
	// TB allocation, direct kernels.
	BackendResCCL BackendKind = iota
	// BackendNCCL emulates the vendor-standard library (channelized
	// rings, interpreter, connection TBs).
	BackendNCCL
	// BackendMSCCL emulates Microsoft's MSCCL runtime (custom
	// algorithms on the NCCL-style backend, stage-level channels).
	BackendMSCCL
)

func (k BackendKind) String() string {
	switch k {
	case BackendResCCL:
		return "ResCCL"
	case BackendNCCL:
		return "NCCL"
	case BackendMSCCL:
		return "MSCCL"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(k))
	}
}

// Communicator executes collectives over a fixed topology, caching
// compiled plans by structural fingerprint.
type Communicator struct {
	topo *Topology
	// shape is topo.String(), which dispatch tables are checked against.
	shape string
	kind  BackendKind
	// def holds communicator-wide run defaults; per-call RunOptions
	// overlay it (options.go).
	def runSettings

	backend backend.Backend
	cache   *backend.Cache

	// Lazily autotuned dispatch table (WithAutotune / Tune); the sweep
	// runs at most once per communicator, error included.
	tuneOnce sync.Once
	tuned    *tune.Table
	tuneErr  error

	// algos memoises the operator-level calls' algorithms by name
	// (named): each is built and validated once per communicator and
	// shared, read-only, by every later call. keys memoises their
	// plan-cache keys.
	algoMu sync.Mutex
	algos  map[string]*Algorithm
	keys   exec.Keys
}

// NewCommunicator creates a communicator over tp.
func NewCommunicator(tp *Topology, opts ...Option) (*Communicator, error) {
	if tp == nil {
		return nil, ErrNilTopology
	}
	c := &Communicator{
		topo:  tp,
		shape: tp.String(),
		kind:  BackendResCCL,
		cache: backend.NewCache(),
	}
	for _, o := range opts {
		o.applyComm(c)
	}
	var err error
	if c.backend, err = newBackend(c.kind); err != nil {
		return nil, err
	}
	c.def.Backend, c.def.Cache, c.def.Keys, c.def.Topo = c.backend, c.cache, &c.keys, tp
	return c, nil
}

// newBackend returns the backend kind selects, resolved by its name.
func newBackend(kind BackendKind) (backend.Backend, error) {
	b, err := backend.Named(kind.String())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknownBackend, kind)
	}
	return b, nil
}

// Backend returns the communicator's backend name.
func (c *Communicator) Backend() string { return c.backend.Name() }

// NRanks returns the communicator size.
func (c *Communicator) NRanks() int { return c.topo.NRanks() }

// Run is the outcome of one collective execution.
type Run struct {
	// Backend identifies the backend that executed the plan.
	Backend string
	// BufferBytes is the per-rank payload.
	BufferBytes int64
	// Protocol is the transport protocol tier the plan ran under —
	// the auto-selected tier when the call left it to the backend, or
	// the forced tier of WithProtocol. ProtoAuto means the backend does
	// not distinguish tiers (Simple semantics).
	Protocol Protocol
	// Completion is the simulated wall time of the collective.
	Completion time.Duration

	algorithm string
	plan      *backend.Plan
	result    *sim.Result
	timeline  *obs.Timeline

	// util is the utilization report, built by the first Utilization
	// call: most callers never read it.
	utilOnce sync.Once
	util     *trace.Utilization
}

// Algorithm returns the name of the executed algorithm. For calls
// dispatched through a DispatchTable this is the table's pick — a
// registry name ("hm-allreduce") or an encoded synthesized plan
// ("synth:sketch/…") — so callers can observe what the autotuner chose.
func (r *Run) Algorithm() string { return r.algorithm }

// AlgoBandwidth returns BufferBytes/Completion in bytes/s — the
// "algorithm bandwidth" metric of §5.2.
func (r *Run) AlgoBandwidth() float64 { return r.result.AlgoBW }

// MicroBatches returns how many micro-batches the transfer was split
// into.
func (r *Run) MicroBatches() int { return r.result.Plan.NMicroBatches }

// LinkUtilization returns the mean busy fraction of the links the
// algorithm used (Table 1's metric). Under RunConcurrently the links'
// busy time is the shared fabric's, over the whole concurrent run.
func (r *Run) LinkUtilization() float64 { return r.result.MeanLinkUtilization() }

// Utilization returns the thread-block utilization report (Table 3's
// metrics). It is computed on the first call and shared by later ones;
// it is safe for concurrent use.
func (r *Run) Utilization() *trace.Utilization {
	r.utilOnce.Do(func() { r.util = trace.Analyze(r.plan.Kernel, r.result, r.plan.Backend) })
	return r.util
}

// Timeline returns the run's simulated execution timeline, or nil when
// the run was not configured with WithTimeline or WithTraceSink. Export
// it with Timeline.WriteChrome, or add it to a Trace.
func (r *Run) Timeline() *Timeline { return r.timeline }

// AllReduce executes an AllReduce of bufferBytes per rank.
func (c *Communicator) AllReduce(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(AllReduce, bufferBytes, opts)
}

// AllGather executes an AllGather of bufferBytes per rank.
func (c *Communicator) AllGather(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(AllGather, bufferBytes, opts)
}

// ReduceScatter executes a ReduceScatter of bufferBytes per rank.
func (c *Communicator) ReduceScatter(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(ReduceScatter, bufferBytes, opts)
}

// Broadcast sends rank 0's bufferBytes to every rank.
func (c *Communicator) Broadcast(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(Broadcast, bufferBytes, opts)
}

// AllToAll exchanges personalized segments: every rank sends bufferBytes
// split into per-destination segments (the MoE dispatch pattern).
func (c *Communicator) AllToAll(bufferBytes int64, opts ...RunOption) (*Run, error) {
	return c.runOp(AllToAll, bufferBytes, opts)
}

// runOp executes an operator-level call. With a dispatch table in
// effect (WithDispatchTable or WithAutotune, per call or
// communicator-wide) the table picks the algorithm and protocol tier
// for the call's size; otherwise the built-in defaultAlgorithm runs.
func (c *Communicator) runOp(op Op, bufferBytes int64, opts []RunOption) (*Run, error) {
	if bufferBytes <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidBuffer, bufferBytes)
	}
	s := c.settings(opts)
	table, err := c.dispatchTable(&s)
	if err != nil {
		return nil, err
	}
	if table != nil {
		if e, ok := table.Lookup(op, bufferBytes); ok {
			algo, err := c.dispatch(table, e, &s)
			if err != nil {
				return nil, err
			}
			return c.run(algo, bufferBytes, &s)
		}
		// The table has no bucket for this operator (a sweep over a
		// subset of ops); fall through to the built-in default.
	}
	name, ok := expert.Default(op, c.topo.NNodes, c.topo.GPUsPerNode)
	if !ok {
		return nil, fmt.Errorf("%w: no default for %v", ErrUnknownAlgorithm, op)
	}
	algo, err := c.named(name)
	if err != nil {
		return nil, err
	}
	s.memoName = name
	return c.run(algo, bufferBytes, &s)
}

// RunAlgorithm compiles (or reuses a cached plan for) the algorithm and
// executes it with the given per-rank payload. Per-call RunOptions
// override the communicator's defaults. Explicit algorithms bypass
// dispatch tables — the caller already chose the plan.
func (c *Communicator) RunAlgorithm(algo *Algorithm, bufferBytes int64, opts ...RunOption) (*Run, error) {
	if bufferBytes <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrInvalidBuffer, bufferBytes)
	}
	s := c.settings(opts)
	return c.run(algo, bufferBytes, &s)
}

func (c *Communicator) run(algo *Algorithm, bufferBytes int64, s *runSettings) (*Run, error) {
	outs, err := exec.Run(context.Background(), s.Request, exec.Call{Algo: algo, BufferBytes: bufferBytes, Protocol: s.protocol, Name: s.memoName})
	if err != nil {
		return nil, err
	}
	return c.newRun(s, outs[0], bufferBytes, ""), nil
}

// newRun reports one executed call, under the dispatch table's pick
// when a table picked its algorithm. With timelines on it builds the
// call's timeline, labelled prefix+backend/algorithm, into s.Trace.
func (c *Communicator) newRun(s *runSettings, o exec.Outcome, bufferBytes int64, prefix string) *Run {
	p := o.Plan
	run := &Run{
		Backend:     p.Backend,
		BufferBytes: bufferBytes,
		Protocol:    p.Kernel.Protocol,
		Completion:  time.Duration(o.Result.Completion * float64(time.Second)),
		algorithm:   p.Algo.Name,
		plan:        p,
		result:      o.Result,
	}
	if s.TuneHash != "" {
		run.algorithm = s.memoName
	}
	if s.RecordTimeline {
		run.timeline = o.Timeline(prefix+p.Backend+"/"+p.Algo.Name, c.topo)
		s.Trace.AddTimeline(run.timeline)
	}
	return run
}

// PlanCacheStats snapshots the communicator's plan-cache counters.
func (c *Communicator) PlanCacheStats() backend.CacheStats { return c.cache.Stats() }

// Verify proves an algorithm correct against its operator
// postcondition by symbolic replay, at any rank count (without
// simulating timing).
func Verify(algo *Algorithm) error { return collective.Check(algo) }

// EmitLang renders an algorithm back to ResCCLang source (one transfer
// statement per task). CompileLang(EmitLang(a)) reproduces a's transfer
// set.
func EmitLang(algo *Algorithm) (string, error) { return lang.Emit(algo) }

// EmbedAlgorithm remaps an algorithm written for a sub-communicator onto
// the full cluster: ranks[i] is the global rank playing the algorithm's
// rank i. Use it to build process-group collectives (tensor/data
// parallel groups) that RunConcurrently can schedule side by side.
func EmbedAlgorithm(algo *Algorithm, ranks []ir.Rank, fullRanks int) (*Algorithm, error) {
	return ir.Embed(algo, ranks, fullRanks)
}

// RunConcurrently executes several algorithms side by side on the
// communicator's cluster, sharing links and NICs — process groups or
// co-located tenants. bufferBytes[i] is the payload of algos[i]. The
// returned runs are in input order; each Run's Completion is that
// collective's own finish time under contention.
func (c *Communicator) RunConcurrently(algos []*Algorithm, bufferBytes []int64, opts ...RunOption) ([]*Run, error) {
	if len(algos) == 0 || len(algos) != len(bufferBytes) {
		return nil, fmt.Errorf("resccl: need equal, non-zero numbers of algorithms and buffer sizes")
	}
	s := c.settings(opts)
	calls := make([]exec.Call, len(algos))
	for i, algo := range algos {
		if bufferBytes[i] <= 0 {
			return nil, fmt.Errorf("%w: buffer %d", ErrInvalidBuffer, i)
		}
		calls[i] = exec.Call{Algo: algo, BufferBytes: bufferBytes[i], Protocol: s.protocol}
	}
	outs, err := exec.Run(context.Background(), s.Request, calls...)
	if err != nil {
		return nil, err
	}
	runs := make([]*Run, len(outs))
	for i, o := range outs {
		runs[i] = c.newRun(&s, o, bufferBytes[i], fmt.Sprintf("session%d/", i))
	}
	return runs, nil
}

// ExecuteAlgorithm compiles the algorithm with the communicator's
// backend and executes the resulting kernel for microBatches
// micro-batches: the plan must pass the static analyzer's deadlock and
// hazard gate, and the transfers the simulated run completed must
// replay, micro-batch by micro-batch, to the operator's postcondition
// — proving the compiled plan deadlock-free and semantically correct.
func (c *Communicator) ExecuteAlgorithm(algo *Algorithm, microBatches int, opts ...RunOption) error {
	// No payload size exists here, so auto stays auto.
	s := c.settings(opts)
	o, err := exec.Compile(context.Background(), s.Request, exec.Call{Algo: algo, Protocol: s.protocol})
	if err != nil {
		return err
	}
	return exec.Execute(s.Request, &o, microBatches)
}
