// Command perfbench is the repository benchmark. One invocation runs
// one seeded workload, checks every output, and prints its metrics as
// the last line of standard output:
//
//	perfbench --workload train-step --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) re-issues each operation as its sequence of layer
// calls, wrapped in spans, and reports the per-layer metrics. The seed
// changes only the order and timing of operations, never which
// operations run. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	drift   *driftProbe
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	tracer            *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"train-step":    runTrainStep,
	"serve-mixed":   runServeMixed,
	"compile-scale": runCompileScale,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: train-step, serve-mixed or compile-scale")
	seed := flag.Int64("seed", 1, "seed for operation order, arrival times and tenants")
	seconds := flag.Int("seconds", 30, "length of the timed phase in seconds (BENCHMARK.json run_seconds)")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (train-step, serve-mixed, compile-scale), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))
	drift, err := newDriftProbe()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traced == 1, drift: drift}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res, err := report(out, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if out.tracer != nil {
		file := fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)
		if err := out.tracer.dump(filepath.Join(".bench_build", "spans"), file); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report turns an outcome into the result line: every end-to-end metric
// for an untraced run, every per-layer metric for a traced one.
func report(out *outcome, traced bool) (*result, error) {
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := out.e2e[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		return res, nil
	}
	spanLayerMetrics(out)
	for _, m := range perLayer {
		v := out.layer[m.name] // a layer the workload never calls reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s is not a number", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res, nil
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the library sees; every workload
// reports all of them. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MiB"},
	{"live_heap_mb", "MiB"},
	{"sim_comm_ms", "sim_ms"},
	{"gap_pct", "%"},
	{"tbs_per_rank", "count"},
	{"idle_ratio", "ratio"},
}

// spanMetric derives per-layer metrics from the spans of one layer
// call: the median span duration, scaled from milliseconds, and the
// heap allocations per call. Every span runs while nothing else does,
// so the process-wide allocation counters see only that call.
type spanMetric struct {
	span  string
	unit  string
	scale float64
}

var spanMetrics = []spanMetric{
	{"resccl.call", "ms", 1},
	{"tune.lookup", "us", 1e3},
	{"expert.build", "ms", 1},
	{"backend.hit", "ms", 1},
	{"trace.util", "ms", 1},
	{"sim.run", "ms", 1},
	{"tune.sweep", "s", 1e-3},
	{"collective.check", "ms", 1},
	{"verify.check", "ms", 1},
	{"dag.build", "ms", 1},
	{"sched.hpds", "ms", 1},
	{"talloc.alloc", "ms", 1},
	{"kernel.lower", "ms", 1},
	{"analyze.vet", "ms", 1},
	{"backend.miss", "ms", 1},
	{"analyze.full", "ms", 1},
	{"cert.certify", "ms", 1},
}

func (m spanMetric) name() string { return m.span + "_" + m.unit }

// perLayer lists every per-layer metric; BENCHMARK.json lists the same.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range spanMetrics {
		defs = append(defs, metricDef{m.name(), m.unit})
	}
	defs = append(defs,
		metricDef{"resccl.glue_ms", "ms"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"dag.tasks", "count"},
		metricDef{"sched.subs", "count"},
		metricDef{"talloc.tbs", "count"},
		metricDef{"kernel.slots", "count"},
		metricDef{"backend.hit_ratio", "ratio"},
		metricDef{"backend.evictions", "count"},
		metricDef{"serve.wait_p50_ms", "ms"},
		metricDef{"serve.wait_p99_ms", "ms"},
		metricDef{"serve.exec_ms.compile", "ms"},
		metricDef{"serve.exec_ms.simulate", "ms"},
		metricDef{"serve.exec_ms.analyze", "ms"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.gen_late_ms", "ms"},
	)
	for _, m := range spanMetrics {
		defs = append(defs, metricDef{m.span + ".allocs_per_call", "count"}, metricDef{m.span + ".kb_per_call", "KiB"})
	}
	defs = append(defs, metricDef{"tracing.overhead_pct", "%"}, metricDef{"unattributed_pct", "%"})
	return defs
}()

// spanLayerMetrics fills the span-derived per-layer metrics.
func spanLayerMetrics(out *outcome) {
	tr := out.tracer
	if tr == nil {
		return
	}
	for _, m := range spanMetrics {
		if d := tr.durations(m.span); len(d) > 0 {
			out.layer[m.name()] = median(d) * m.scale
		}
	}
	for _, m := range spanMetrics {
		out.layer[m.span+".allocs_per_call"], out.layer[m.span+".kb_per_call"] = tr.allocsPerCall(m.span)
	}
	for name, v := range tr.counts {
		out.layer[name] = mean(v)
	}
	out.layer["tracing.overhead_pct"] = tr.overheadPct()
	out.layer["unattributed_pct"] = tr.unattributedPct()
}
