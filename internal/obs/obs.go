// Package obs is the structured observability layer: spans for compile
// and execution stages, a counters/gauges registry, and simulated
// execution timelines exportable as Chrome trace-event JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev).
//
// The package depends only on the standard library and carries no
// references into the rest of the system: producers (the public Run API,
// the experiment harness, the training simulator) convert their native
// results into obs values. All collector methods are safe for concurrent
// use and tolerate a nil receiver, so instrumentation call sites need no
// nil guards — a nil *Trace or *Metrics simply disables recording.
package obs

import (
	"sync"
	"time"
)

// Attr is one span attribute. Attributes are ordered key/value pairs so
// exports are deterministic.
type Attr struct {
	Key, Value string
}

// Span is one completed operation: a compile stage or a simulation. Spans are measured in host wall time, so two runs
// of the same workload produce equal span *structure* but different
// durations.
type Span struct {
	// Name identifies the operation ("compile/HM-AllReduce", "sim/run").
	Name string
	// Cat groups spans for trace viewers ("compile", "execute").
	Cat string
	// Start is when the operation began.
	Start time.Time
	// Duration is how long it took.
	Duration time.Duration
	// Attrs holds optional key/value detail.
	Attrs []Attr
}

// Stage is a pre-measured pipeline stage: a name and how long it took.
// Compile pipelines report their phase breakdown as stages, which
// Trace.AddStages converts into contiguous child spans.
type Stage struct {
	Name     string
	Duration time.Duration
}

// Trace collects spans and simulated timelines from instrumented runs.
// Attach one to a Communicator (resccl.WithTraceSink) or to a single
// call, then export with WriteChrome.
type Trace struct {
	mu        sync.Mutex
	now       func() time.Time
	spans     []Span
	timelines []*Timeline
}

// NewTrace returns an empty trace collector. The wall clock is the one
// legitimate host-time source in this package — it is the injectable
// default that SetClock overrides.
func NewTrace() *Trace { return &Trace{now: time.Now} } //resccl:allow hosttime

// SetClock replaces the wall-clock source used to timestamp spans. Tests
// inject a deterministic clock so span output is reproducible.
func (t *Trace) SetClock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

func (t *Trace) clock() func() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.now == nil {
		t.now = time.Now //resccl:allow hosttime
	}
	return t.now
}

// ActiveSpan is an in-progress span returned by StartSpan; End completes
// and records it.
type ActiveSpan struct {
	tr   *Trace
	span Span
}

// StartSpan opens a span. The returned ActiveSpan's End records it; a
// nil Trace returns a nil ActiveSpan whose End is a no-op.
func (t *Trace) StartSpan(cat, name string, attrs ...Attr) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{tr: t, span: Span{Name: name, Cat: cat, Start: t.clock()(), Attrs: attrs}}
}

// End completes the span and records it on its trace.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.span.Duration = s.tr.clock()().Sub(s.span.Start)
	s.tr.AddSpan(s.span)
}

// AddSpan records a completed span.
func (t *Trace) AddSpan(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// AddStages records a pre-measured stage breakdown as contiguous spans:
// the stages are anchored at the collector's current clock reading and
// laid end to end, preserving their relative durations. prefix is
// prepended to every stage name ("compile/HM-AllReduce: schedule").
func (t *Trace) AddStages(cat, prefix string, stages []Stage) {
	if t == nil || len(stages) == 0 {
		return
	}
	at := t.clock()()
	for _, st := range stages {
		t.AddSpan(Span{Name: prefix + ": " + st.Name, Cat: cat, Start: at, Duration: st.Duration})
		at = at.Add(st.Duration)
	}
}

// AddTimeline records a simulated execution timeline.
func (t *Trace) AddTimeline(tl *Timeline) {
	if t == nil || tl == nil {
		return
	}
	t.mu.Lock()
	t.timelines = append(t.timelines, tl)
	t.mu.Unlock()
}

// Spans returns a snapshot of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Timelines returns a snapshot of the recorded timelines in recording
// order.
func (t *Trace) Timelines() []*Timeline {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Timeline(nil), t.timelines...)
}
