package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a fixed step per reading, making span output
// deterministic.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestNilCollectorsAreSafe(t *testing.T) {
	var tr *Trace
	var m *Metrics
	sp := tr.StartSpan("cat", "name")
	sp.End()
	tr.AddSpan(Span{})
	tr.AddStages("c", "p", []Stage{{Name: "x", Duration: time.Second}})
	tr.AddTimeline(&Timeline{})
	if tr.Spans() != nil || tr.Timelines() != nil {
		t.Error("nil Trace returned non-nil snapshots")
	}
	m.Add("c", 1)
	m.SetGauge("g", 1)
	m.AddGauge("g", 1)
	if m.Counter("c") != 0 {
		t.Error("nil Metrics counted")
	}
	if _, ok := m.Gauge("g"); ok {
		t.Error("nil Metrics has a gauge")
	}
	if err := m.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Errorf("nil Metrics WriteJSON: %v", err)
	}
}

func TestSpansWithFakeClock(t *testing.T) {
	tr := NewTrace()
	tr.SetClock(fakeClock(time.Millisecond))
	sp := tr.StartSpan("sim", "run", Attr{Key: "backend", Value: "ResCCL"})
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Duration != time.Millisecond {
		t.Errorf("duration = %v, want 1ms", spans[0].Duration)
	}
	if spans[0].Cat != "sim" || spans[0].Name != "run" {
		t.Errorf("span identity = %q/%q", spans[0].Cat, spans[0].Name)
	}
}

func TestAddStagesLaysSpansEndToEnd(t *testing.T) {
	tr := NewTrace()
	tr.SetClock(fakeClock(0))
	tr.AddStages("compile", "compile/x", []Stage{
		{Name: "analyze", Duration: 2 * time.Millisecond},
		{Name: "schedule", Duration: 3 * time.Millisecond},
	})
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if got := spans[1].Start.Sub(spans[0].Start); got != 2*time.Millisecond {
		t.Errorf("second stage starts %v after first, want 2ms", got)
	}
	if spans[0].Name != "compile/x: analyze" {
		t.Errorf("span name = %q", spans[0].Name)
	}
}

func TestMetricsCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add("hits", 1)
			}
		}()
	}
	wg.Wait()
	if got := m.Counter("hits"); got != 800 {
		t.Errorf("hits = %d, want 800", got)
	}
	m.SetGauge("g", 2.5)
	m.AddGauge("g", 1.5)
	if v, ok := m.Gauge("g"); !ok || v != 4.0 {
		t.Errorf("gauge = %v,%v want 4,true", v, ok)
	}
	snap := m.Snapshot()
	if snap.Counters["hits"] != 800 || snap.Gauges["g"] != 4.0 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestMetricsWriteJSONDeterministic(t *testing.T) {
	m := NewMetrics()
	m.Add("b.count", 2)
	m.Add("a.count", 1)
	m.SetGauge("z.gauge", 0.5)
	var first, second bytes.Buffer
	if err := m.WriteJSON(&first); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("two WriteJSON renders differ")
	}
	if !json.Valid(first.Bytes()) {
		t.Error("output is not valid JSON")
	}
	if !strings.HasSuffix(first.String(), "\n") {
		t.Error("output lacks trailing newline")
	}
}

func TestWriteChromeTimeline(t *testing.T) {
	tl := &Timeline{
		Name:       "test/run",
		Completion: 2.0,
		TBs: []TBTrack{
			{ID: 0, Rank: 0, Label: "0→1/send", Slices: []Slice{{Name: "t0 mb0 0→1", Start: 0, End: 1}}},
			{ID: 1, Rank: 1, Label: "0→1/recv"},
		},
		Links: []LinkTrack{
			{Name: "pair(0→1)", Slices: []Slice{{Name: "t0", Start: 0, End: 1}, {Name: "t1", Start: 0.5, End: 2}}},
		},
		Faults:  []FaultWindow{{Kind: "link-down", Detail: "nic0", Start: 0.5, End: 1.5}},
		Replans: []Mark{{Name: "replan", Detail: "epoch 1", Time: 1}},
	}
	var buf bytes.Buffer
	if err := tl.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var threads, counters, slices, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			if e["name"] == "thread_name" {
				threads++
			}
		case "C":
			counters++
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	// 2 TB tracks + fault lane + replan lane.
	if threads != 4 {
		t.Errorf("thread_name metas = %d, want 4", threads)
	}
	// 4 distinct boundaries on the one link.
	if counters < 4 {
		t.Errorf("counter samples = %d, want >= 4", counters)
	}
	// 1 TB slice + 1 fault window.
	if slices != 2 {
		t.Errorf("X slices = %d, want 2", slices)
	}
	if instants != 1 {
		t.Errorf("instants = %d, want 1", instants)
	}
}

func TestWriteChromeHostSpansOptIn(t *testing.T) {
	tr := NewTrace()
	tr.SetClock(fakeClock(time.Millisecond))
	tr.StartSpan("compile", "compile/x").End()
	var without, with bytes.Buffer
	if err := tr.WriteChrome(&without); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChrome(&with, WithHostSpans()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(without.String(), "compile/x") {
		t.Error("host span exported without WithHostSpans")
	}
	if !strings.Contains(with.String(), "compile/x") {
		t.Error("host span missing with WithHostSpans")
	}
}
