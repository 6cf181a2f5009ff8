package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Metrics is a flat counters/gauges registry. Counters are monotonic
// int64 accumulators (cache hits, sim events, replans); gauges are
// float64 values that may also be accumulated (per-link busy seconds).
// Names are dot-separated ("plan_cache.hits", "sim.events"); the full
// vocabulary the library emits is documented in docs/observability.md.
//
// All methods are safe for concurrent use and on a nil receiver.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]int64), gauges: make(map[string]float64)}
}

// Add increments a counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counter returns a counter's current value (0 if never written).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SetGauge sets a gauge to v, replacing any previous value.
func (m *Metrics) SetGauge(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// AddGauge accumulates delta into a gauge (per-link busy time sums
// across runs this way).
func (m *Metrics) AddGauge(name string, delta float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] += delta
	m.mu.Unlock()
}

// Gauge returns a gauge's current value and whether it was ever set.
func (m *Metrics) Gauge(name string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.gauges[name]
	return v, ok
}

// Snapshot is a point-in-time copy of the registry with names sorted,
// ready for deterministic rendering.
type Snapshot struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
}

// Snapshot copies the registry.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Map→map copies: order-independent.
	for k, v := range m.counters { //resccl:allow mapiter
		s.Counters[k] = v
	}
	for k, v := range m.gauges { //resccl:allow mapiter
		s.Gauges[k] = v
	}
	return s
}

// WriteJSON renders the registry as indented JSON with sorted keys
// (encoding/json sorts map keys), trailing newline included.
func (m *Metrics) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(m.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
