package bench

// PerfExperiment is one experiment's slice of a perf record.
type PerfExperiment struct {
	ID          string  `json:"id"`
	WallMS      float64 `json:"wall_ms"`
	Tables      int     `json:"tables"`
	Rows        int     `json:"rows"`
	SimEvents   int64   `json:"sim_events"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
}

// SwitchPoint records one collective's simulated protocol crossover
// thresholds: buffers ≤ LLMaxBytes run LL, buffers ≤ LL128MaxBytes run
// LL128, larger buffers run Simple.
type SwitchPoint struct {
	Collective    string `json:"collective"`
	LLMaxBytes    int64  `json:"ll_max_bytes"`
	LL128MaxBytes int64  `json:"ll128_max_bytes"`
}

// PerfRecord is the machine-readable output of ressclbench -bench-json.
// Records are committed as BENCH_*.json files so perf regressions show
// up in review (see docs/performance.md).
type PerfRecord struct {
	GeneratedBy  string  `json:"generated_by"`
	Quick        bool    `json:"quick"`
	Parallel     bool    `json:"parallel"`
	Workers      int     `json:"workers"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	TotalWallMS  float64 `json:"total_wall_ms"`
	SimEvents    int64   `json:"sim_events"`
	SimRuns      int64   `json:"sim_runs"`
	Replans      int64   `json:"replans"`
	EventsPerSec float64 `json:"events_per_sec"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheEntries int     `json:"cache_entries"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SwitchPoints is filled when the protocol-crossover experiment ran:
	// the simulated LL/LL128/Simple thresholds per collective.
	SwitchPoints []SwitchPoint    `json:"protocol_switch_points,omitempty"`
	Experiments  []PerfExperiment `json:"experiments"`
	// ServeLoad is filled by ressclbench -serve-load: throughput and
	// latency percentiles of a storm against the plan service. It lives
	// in its own BENCH_serve.json record — service timings are load- and
	// host-dependent, so they never enter the deterministic baseline.
	ServeLoad *ServeLoadRecord `json:"serve_load,omitempty"`
}
