package serve

import (
	"sort"
	"sync"
)

// latWindow is a bounded sliding window of request latencies (in
// milliseconds). It keeps the most recent cap samples; percentile
// queries sort a copy, so recording stays O(1) on the hot path.
type latWindow struct {
	mu    sync.Mutex
	buf   []float64
	next  int
	count int64
}

// defaultLatWindow is the per-tenant sample budget. Large enough for a
// stable p99, small enough that a flood of tenants stays bounded.
const defaultLatWindow = 512

func newLatWindow(capacity int) *latWindow {
	if capacity <= 0 {
		capacity = defaultLatWindow
	}
	return &latWindow{buf: make([]float64, 0, capacity)}
}

func (w *latWindow) record(ms float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.count++
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, ms)
		return
	}
	w.buf[w.next] = ms
	w.next = (w.next + 1) % len(w.buf)
}

// percentiles returns p50/p95/p99 over the current window using the
// nearest-rank method, plus the number of samples observed in total.
// All zeros when no sample has been recorded.
func (w *latWindow) percentiles() (p50, p95, p99 float64, n int64) {
	w.mu.Lock()
	samples := append([]float64(nil), w.buf...)
	n = w.count
	w.mu.Unlock()
	if len(samples) == 0 {
		return 0, 0, 0, n
	}
	sort.Float64s(samples)
	rank := func(p float64) float64 {
		i := int(p*float64(len(samples))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	return rank(0.50), rank(0.95), rank(0.99), n
}
