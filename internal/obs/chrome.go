package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Chrome trace-event export (the JSON Array / JSON Object format read by
// chrome://tracing and Perfetto). Each recorded Timeline becomes one
// "process": thread-block tracks are threads with one complete ("X")
// slice per task instance, links are counter ("C") tracks of concurrently
// active transfers, faults render as slices on a dedicated lane and
// replans as instant ("i") markers. Timestamps are simulated seconds
// converted to trace microseconds and rounded to nanosecond precision,
// so the output is byte-identical across runs for identical simulator
// inputs.
//
// Host-side spans (compile stages, wall-clock execution spans) are
// excluded by default because their durations are nondeterministic;
// WithHostSpans adds them as a separate "host" process.

// ExportOption configures WriteChrome.
type ExportOption func(*exportConfig)

type exportConfig struct {
	hostSpans bool
}

// WithHostSpans includes wall-clock spans (compile stages, simulator
// execution) as a "host" process. Span durations are host wall time, so
// traces exported with this option are not byte-reproducible.
func WithHostSpans() ExportOption {
	return func(c *exportConfig) { c.hostSpans = true }
}

// usec converts simulated seconds to trace microseconds, rounded to
// nanosecond precision for stable, compact formatting.
func usec(sec float64) float64 { return math.Round(sec*1e9) / 1e3 }

// chromeEvent is one trace event. Field order is fixed by the struct, so
// encoding/json output is deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (cw *chromeWriter) event(e chromeEvent) {
	if cw.err != nil {
		return
	}
	out, err := json.Marshal(e)
	if err != nil {
		cw.err = err
		return
	}
	if !cw.first {
		cw.w.WriteString(",\n")
	}
	cw.first = false
	_, cw.err = cw.w.Write(out)
}

func (cw *chromeWriter) meta(name string, pid, tid int, args map[string]any) {
	cw.event(chromeEvent{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args})
}

func (cw *chromeWriter) slice(name string, pid, tid int, start, end float64, args map[string]any) {
	d := usec(end) - usec(start)
	if d < 0 {
		d = 0
	}
	cw.event(chromeEvent{Name: name, Ph: "X", Ts: usec(start), Dur: &d, Pid: pid, Tid: tid, Args: args})
}

// WriteChrome renders the trace as Chrome trace-event JSON, one event
// per line for reviewable diffs.
func (t *Trace) WriteChrome(w io.Writer, opts ...ExportOption) error {
	var cfg exportConfig
	for _, o := range opts {
		o(&cfg)
	}
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw, first: true}
	bw.WriteString("{\"traceEvents\":[\n")

	if cfg.hostSpans {
		writeHostSpans(cw, t.Spans())
	}
	for i, tl := range t.Timelines() {
		writeTimeline(cw, tl, i+1)
	}

	if cw.err != nil {
		return cw.err
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// WriteChrome renders a single timeline as Chrome trace-event JSON.
func (tl *Timeline) WriteChrome(w io.Writer) error {
	t := NewTrace()
	t.AddTimeline(tl)
	return t.WriteChrome(w)
}

// writeHostSpans renders wall-clock spans as pid 0, timestamped relative
// to the earliest span start.
func writeHostSpans(cw *chromeWriter, spans []Span) {
	if len(spans) == 0 {
		return
	}
	cw.meta("process_name", 0, 0, map[string]any{"name": "host"})
	cw.meta("process_sort_index", 0, 0, map[string]any{"sort_index": 0})
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	for _, s := range spans {
		args := map[string]any{"cat": s.Cat}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		start := s.Start.Sub(epoch).Seconds()
		cw.slice(s.Name, 0, 1, start, start+s.Duration.Seconds(), args)
	}
}

func writeTimeline(cw *chromeWriter, tl *Timeline, pid int) {
	cw.meta("process_name", pid, 0, map[string]any{"name": tl.Name})
	cw.meta("process_sort_index", pid, 0, map[string]any{"sort_index": pid})

	// Thread-block tracks: tid 1..len(TBs), in ascending track order.
	for i, tb := range tl.TBs {
		tid := i + 1
		cw.meta("thread_name", pid, tid, map[string]any{"name": fmt.Sprintf("TB%d r%d %s", tb.ID, tb.Rank, tb.Label)})
		cw.meta("thread_sort_index", pid, tid, map[string]any{"sort_index": tid})
		for _, sl := range tb.Slices {
			cw.slice(sl.Name, pid, tid, sl.Start, sl.End, nil)
		}
	}
	faultTid := len(tl.TBs) + 1
	replanTid := len(tl.TBs) + 2
	if len(tl.Faults) > 0 {
		cw.meta("thread_name", pid, faultTid, map[string]any{"name": "faults"})
		cw.meta("thread_sort_index", pid, faultTid, map[string]any{"sort_index": faultTid})
		for _, f := range tl.Faults {
			cw.slice(f.Kind, pid, faultTid, f.Start, f.End, map[string]any{"detail": f.Detail})
		}
	}
	if len(tl.Replans) > 0 {
		cw.meta("thread_name", pid, replanTid, map[string]any{"name": "replans"})
		cw.meta("thread_sort_index", pid, replanTid, map[string]any{"sort_index": replanTid})
		for _, m := range tl.Replans {
			cw.event(chromeEvent{Name: m.Name, Ph: "i", Ts: usec(m.Time), Pid: pid, Tid: replanTid,
				S: "p", Args: map[string]any{"detail": m.Detail}})
		}
	}
	// Link tracks: one counter per link, sampled at every transfer
	// boundary with the number of concurrently active transfers.
	for _, link := range tl.Links {
		writeLinkCounter(cw, pid, link, tl.Completion)
	}
}

// writeLinkCounter emits a counter track for one link: the active-flow
// count at every slice boundary.
func writeLinkCounter(cw *chromeWriter, pid int, link LinkTrack, completion float64) {
	if len(link.Slices) == 0 {
		return
	}
	deltas := make(map[float64]int, 2*len(link.Slices))
	for _, sl := range link.Slices {
		deltas[usec(sl.Start)]++
		deltas[usec(sl.End)]--
	}
	times := make([]float64, 0, len(deltas))
	for t := range deltas { //resccl:allow mapiter
		times = append(times, t)
	}
	sort.Float64s(times)
	name := "link " + link.Name
	if times[0] > 0 {
		cw.event(chromeEvent{Name: name, Ph: "C", Ts: 0, Pid: pid, Args: map[string]any{"active": 0}})
	}
	active := 0
	for _, t := range times {
		active += deltas[t]
		cw.event(chromeEvent{Name: name, Ph: "C", Ts: t, Pid: pid, Args: map[string]any{"active": active}})
	}
	if end := usec(completion); len(times) > 0 && times[len(times)-1] < end {
		cw.event(chromeEvent{Name: name, Ph: "C", Ts: end, Pid: pid, Args: map[string]any{"active": 0}})
	}
}
