package resccl

import (
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/tune"
)

// Trace collects observability spans (compile stages, execution) and
// simulated-execution timelines; export it with WriteChrome.
type Trace = obs.Trace

// Metrics is the counters/gauges registry (plan-cache hits, simulator
// event counts, per-link busy time); export it with WriteJSON.
type Metrics = obs.Metrics

// Timeline is the simulated execution record of one collective: one
// track per thread block and per link, plus fault/replan lanes.
type Timeline = obs.Timeline

// NewTrace returns an empty trace sink.
func NewTrace() *Trace { return obs.NewTrace() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Option configures a Communicator at construction time.
type Option interface{ applyComm(*Communicator) }

// RunOption configures one collective invocation. Options that implement
// both interfaces (WithChunkBytes, WithTraceSink, …) can be set as a
// communicator-wide default and overridden per call; per-call options
// always win.
type RunOption interface{ applyRun(*runSettings) }

// CommRunOption works both as a communicator default (Option) and as a
// per-call override (RunOption).
type CommRunOption interface {
	Option
	RunOption
}

// runSettings is the effective configuration of one collective call:
// the communicator's defaults overlaid with per-call RunOptions. Its
// Request is where and how the call executes (chunk size, trace,
// metrics, timeline, table hash), on the communicator's backend, plan
// cache and topology.
type runSettings struct {
	exec.Request
	protocol ir.Protocol
	// dispatch is an explicit dispatch table (WithDispatchTable);
	// dispatchAuto asks for the communicator's lazily autotuned table
	// (WithAutotune). Per-call settings replace the communicator
	// default wholesale, so a per-call table wins over a default
	// WithAutotune and vice versa.
	dispatch     *tune.Table
	dispatchAuto bool
	// memoName is the name the communicator memoised the call's
	// algorithm under (Communicator.named), "" for an algorithm the
	// caller passed in; it keys the memoised plan-cache key. When a
	// table picked the algorithm (Request.TuneHash is the table's hash)
	// it is the table's pick — the registry key or encoded sketch name —
	// and Run.Algorithm reports it instead of the plan's display name.
	memoName string
}

type commOption func(*Communicator)

func (o commOption) applyComm(c *Communicator) { o(c) }

type dualOption struct {
	run func(*runSettings)
}

func (o dualOption) applyComm(c *Communicator) { o.run(&c.def) }
func (o dualOption) applyRun(s *runSettings)   { o.run(s) }

// WithBackend selects the execution backend (default BackendResCCL).
// Backends are fixed at construction, so this is not a per-call option.
func WithBackend(k BackendKind) Option {
	return commOption(func(c *Communicator) { c.kind = k })
}

// WithChunkBytes overrides the transfer chunk size (default 1 MiB, as
// in the paper's CCL configuration). Usable per communicator or per
// call.
func WithChunkBytes(n int64) CommRunOption {
	return dualOption{run: func(s *runSettings) { s.ChunkBytes = n }}
}

// WithProtocol forces a transport protocol tier (ProtoLL, ProtoLL128,
// ProtoSimple) for the run instead of the backend's size-based
// auto-selection. Usable per communicator or per call; the per-call
// setting wins. ProtoAuto restores auto-selection: the NCCL backend
// picks the tier real NCCL would use for the message size, the other
// backends run at full bandwidth (Simple semantics). Forced and
// auto-selected plans are cached under distinct fingerprints.
func WithProtocol(p Protocol) CommRunOption {
	return dualOption{run: func(s *runSettings) { s.protocol = p }}
}

// WithDispatchTable routes operator-level calls (AllReduce, AllGather,
// …) through a tuned dispatch table: each call runs the algorithm and
// protocol tier the table measured fastest for its message size, and
// Run.Algorithm reports the pick. Usable per communicator or per call;
// the per-call setting wins, and a nil table restores the built-in
// defaults. A forced WithProtocol still overrides the table's tier.
// RunAlgorithm is never redirected — explicit algorithms bypass
// dispatch.
func WithDispatchTable(t *DispatchTable) CommRunOption {
	return dualOption{run: func(s *runSettings) {
		s.dispatchAuto = false
		if t == nil {
			s.dispatch = nil
			return
		}
		s.dispatch = t.t
	}}
}

// WithAutotune dispatches operator-level calls through the
// communicator's own autotuned table, running the tuning sweep lazily
// on first use (once per communicator — subsequent calls reuse it; see
// Communicator.Tune to run it eagerly or export the table). Usable per
// communicator or per call; per-call WithDispatchTable overrides it.
func WithAutotune() CommRunOption {
	return dualOption{run: func(s *runSettings) {
		s.dispatch = nil
		s.dispatchAuto = true
	}}
}

// WithTraceSink records observability data into t: compile-stage spans
// on cache misses, execution spans, and the simulated timeline of every
// run (implies timeline recording). Export with t.WriteChrome.
func WithTraceSink(t *Trace) CommRunOption {
	return dualOption{run: func(s *runSettings) { s.Trace = t }}
}

// WithMetrics publishes counters and gauges into m: plan-cache
// hits/misses, simulator event and instance counts, per-link busy time.
func WithMetrics(m *Metrics) CommRunOption {
	return dualOption{run: func(s *runSettings) { s.Metrics = m }}
}

// WithTimeline enables per-instance timeline recording for the run even
// without a trace sink, making Run.Timeline available. Recording costs
// one record per task instance.
func WithTimeline() CommRunOption {
	return dualOption{run: func(s *runSettings) { s.RecordTimeline = true }}
}

// settings resolves the effective configuration for one call.
func (c *Communicator) settings(opts []RunOption) runSettings {
	s := c.def
	for _, o := range opts {
		o.applyRun(&s)
	}
	if s.Trace != nil {
		s.RecordTimeline = true
	}
	return s
}
