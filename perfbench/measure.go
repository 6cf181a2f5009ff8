package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// latencies summarises one run's per-operation times.
type latencies struct {
	ms []float64
	// tailQ is the workload's tail percentile: the highest of p99/p90
	// its sample count supports with at least ten samples beyond it.
	tailQ float64
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

func (l *latencies) p50() float64 { return median(l.ms) }

func (l *latencies) tail() float64 {
	beyond := float64(len(l.ms)) * (1 - l.tailQ)
	if beyond < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %.0f samples beyond p%g (%d samples)\n",
			beyond, 100*l.tailQ, len(l.ms))
	}
	return quantile(append([]float64(nil), l.ms...), l.tailQ)
}

// allocCounters reads the process-wide cumulative heap allocation
// counters without stopping the world.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler records the live heap, as of the latest garbage
// collection, every 50ms while a timed phase runs.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.mb = append(h.mb, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// liveMB stops the sampler and returns the median live heap in MiB.
func (h *heapSampler) liveMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.mb)
}

// timeSetups runs setup n times and returns the median wall time in
// seconds together with the last set-up's state. Every earlier state is
// passed to teardown, when it is non-nil, outside the timed interval.
// The single times go to standard error.
func timeSetups[T any](n int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return 0, zero, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up times (s): %.3f\n", secs)
	return median(secs), last, nil
}

// driftProbe times a fixed CPU-bound loop and a fixed memory-bound
// loop. Printed before and after the timed phase, the pair lets a
// reader blame an outlier run on the host rather than the program. Its
// buffer lives outside the Go heap, so it does not count towards the
// workload's live heap or pace its garbage collector.
type driftProbe struct {
	mem []uint32
}

const driftWords = 8 << 20 // 32 MiB, well beyond last-level cache

func newDriftProbe() (*driftProbe, error) {
	buf, err := syscall.Mmap(-1, 0, driftWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("drift probe buffer: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[0])), driftWords)
	// Sattolo's algorithm: a random permutation with a single cycle, so
	// the chase visits every word and each load depends on the last.
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &driftProbe{mem: next}, nil
}

var driftSink uint64

func (p *driftProbe) measure() (cpu, mem time.Duration) {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 30_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	cpu = time.Since(start)
	start = time.Now()
	j := uint32(0)
	for i := 0; i < 500_000; i++ {
		j = p.mem[j]
	}
	mem = time.Since(start)
	driftSink += x + uint64(j)
	return cpu, mem
}

func (p *driftProbe) report(when string) {
	cpu, mem := p.measure()
	fmt.Fprintf(os.Stderr, "perfbench: host drift %s timed phase: cpu_loop=%.2fms mem_loop=%.2fms\n", when, ms(cpu), ms(mem))
}

// span is one traced layer call. Parent is the index of the enclosing
// span, -1 for an operation's root span; Start and End are nanoseconds
// since the tracer's base time.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes and Objects are the heap allocations made inside the span.
	Bytes   uint64 `json:"alloc_bytes"`
	Objects uint64 `json:"alloc_objects"`
}

// tracer records spans around the benchmark's calls into each layer's
// public functions. It keeps spans in memory and dumps them when the
// run ends.
type tracer struct {
	base  time.Time
	spans []span
	// counts holds work-size counters recorded at layer boundaries.
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{base: time.Now(), counts: map[string][]float64{}} }

// root opens an operation's root span, named "op", and returns its
// index. The tracer methods are no-ops on a nil tracer, so untraced runs
// share the traced code path.
func (t *tracer) root() int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: "op", Parent: -1, Start: int64(time.Since(t.base))})
	return len(t.spans) - 1
}

// finish closes a root span.
func (t *tracer) finish(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.base))
	}
}

// call runs fn as a child span of parent, recording its wall time and
// the heap allocations it made. The allocation counters are read
// outside the timed interval.
func (t *tracer) call(parent int, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	b0, o0 := allocCounters()
	start := time.Now()
	err := fn()
	end := time.Now()
	b1, o1 := allocCounters()
	t.spans = append(t.spans, span{
		Name: name, Parent: int32(parent),
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base)),
		Bytes: b1 - b0, Objects: o1 - o0,
	})
	return err
}

// count records a work-size counter observed at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = append(t.counts[name], v)
	}
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// durations returns the wall times of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// allocsPerCall returns the mean allocations and KiB per call of the
// named span, or zeros when it never ran.
func (t *tracer) allocsPerCall(name string) (allocs, kb float64) {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			allocs += float64(s.Objects)
			kb += float64(s.Bytes) / 1024
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return allocs / float64(n), kb / float64(n)
}

// childTime returns, per span, the time its direct children cover.
func (t *tracer) childTime() []time.Duration {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	return covered
}

// unattributedPct is the share of operation root-span time that no
// child span covers.
func (t *tracer) unattributedPct() float64 {
	covered := t.childTime()
	var total, cov time.Duration
	for i, s := range t.spans {
		if s.Parent < 0 && s.Name == "op" {
			total += s.dur()
			cov += covered[i]
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(total-cov) / float64(total)
}

// overheadPct estimates the tracer's own cost as a share of operation
// root-span time: child spans recorded × the measured cost of one.
func (t *tracer) overheadPct() float64 {
	var total time.Duration
	children := 0
	for _, s := range t.spans {
		if s.Parent < 0 && s.Name == "op" {
			total += s.dur()
		} else if s.Parent >= 0 {
			children++
		}
	}
	if total == 0 {
		return 0
	}
	probe := newTracer()
	parent := probe.root()
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = probe.call(parent, "probe", func() error { return nil })
	}
	perSpan := time.Since(start) / n
	return 100 * float64(perSpan) * float64(children) / float64(total)
}

// dump writes the spans as JSON lines under dir.
func (t *tracer) dump(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
