// Command ressclsim runs the end-to-end distributed-training simulation
// (§5.5): a Megatron-style GPT-3 or T5 deployment whose collectives are
// served by the selected backend.
//
// Usage:
//
//	ressclsim -model gpt3-13b -nodes 2 -gpus 8 -tp 8 -batch 16
//	ressclsim -model t5-3b -nodes 2 -gpus 8 -dp 16 -batch 16 -backend all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/train"
)

var models = map[string]train.ModelConfig{
	"t5-220m":   train.T5_220M,
	"t5-770m":   train.T5_770M,
	"t5-3b":     train.T5_3B,
	"gpt3-6.7b": train.GPT3_6_7B,
	"gpt3-13b":  train.GPT3_13B,
	"gpt3-22b":  train.GPT3_22B,
	"gpt3-45b":  train.GPT3_45B,
}

func main() {
	var (
		model = flag.String("model", "gpt3-13b", "model: t5-{220m,770m,3b} or gpt3-{6.7b,13b,22b,45b}")
		nodes = flag.Int("nodes", 2, "number of servers")
		gpus  = flag.Int("gpus", 8, "GPUs per server")
		tp    = flag.Int("tp", 0, "tensor-parallel width (default: 8 for GPT-3, 1 for T5)")
		dp    = flag.Int("dp", 0, "data-parallel width (default: fills remaining GPUs)")
		batch = flag.Int("batch", 16, "global batch size")
		bk    = flag.String("backend", "all", "backend: resccl, nccl, msccl or all")
		proto = flag.String("protocol", "auto", "force a transport protocol tier on every collective: auto, ll, ll128 or simple")
		frate = flag.Int("fault-rate", 0, "inject N seeded fault events per collective (0 = none)")
		fseed = flag.Int64("fault-seed", 1, "seed for the injected fault schedule")
		fspec = flag.String("fault-spec", "", "JSON fault-schedule file (see docs/faults.md); mutually exclusive with -fault-rate")
		tout  = flag.String("trace-out", "", "write a Chrome trace-event JSON of every simulated collective to this path (open in Perfetto; see docs/observability.md)")
		mout  = flag.String("metrics-json", "", "write the counters/gauges registry as JSON to this path")
		cpup  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this path")
		memp  = flag.String("memprofile", "", "write a pprof heap profile taken at exit to this path")
	)
	flag.Parse()
	if *cpup != "" {
		f, err := os.Create(*cpup)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memp != "" {
		defer func() {
			f, err := os.Create(*memp)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	m, ok := models[strings.ToLower(*model)]
	if !ok {
		keys := make([]string, 0, len(models))
		for k := range models {
			keys = append(keys, k)
		}
		fatal(fmt.Errorf("unknown model %q (known: %s)", *model, strings.Join(keys, ", ")))
	}
	width := *tp
	if width == 0 {
		if strings.HasPrefix(strings.ToLower(*model), "gpt") {
			width = *gpus
		} else {
			width = 1
		}
	}
	depth := *dp
	if depth == 0 {
		depth = (*nodes) * (*gpus) / width
	}
	protocol, err := ir.ParseProtocol(*proto)
	if err != nil {
		fatal(err)
	}
	cfg := train.Config{
		Model: m, GlobalBatch: *batch,
		TP: width, DP: depth, NNodes: *nodes, GPN: *gpus,
		FaultRate: *frate, FaultSeed: *fseed,
		Protocol: protocol,
	}
	if *tout != "" {
		cfg.Trace = obs.NewTrace()
	}
	if *mout != "" {
		cfg.Metrics = obs.NewMetrics()
	}
	if *fspec != "" {
		if *frate > 0 {
			fatal(fmt.Errorf("-fault-spec and -fault-rate are mutually exclusive"))
		}
		data, err := os.ReadFile(*fspec)
		if err != nil {
			fatal(err)
		}
		// Spec resource IDs name the full cluster topology; thread-block
		// bounds are checked later by the simulator against each compiled
		// kernel.
		cluster := topo.New(*nodes, *gpus, topo.A100())
		sched, err := fault.ParseSchedule(data, cluster)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *fspec, err))
		}
		cfg.Faults = sched
	}

	names := []string{*bk}
	if strings.EqualFold(*bk, "all") {
		names = backend.Names()
	}
	var bks []backend.Backend
	for _, name := range names {
		b, err := backend.Named(name)
		if err != nil {
			fatal(err)
		}
		bks = append(bks, b)
	}

	fmt.Printf("%s on %d×%d GPUs, TP=%d DP=%d, batch %d", m.Name, *nodes, *gpus, width, depth, *batch)
	if *frate > 0 {
		fmt.Printf(", %d fault events/collective (seed %d)", *frate, *fseed)
	}
	if cfg.Faults != nil {
		fmt.Printf(", %d fault events from %s", len(cfg.Faults.Events), *fspec)
	}
	fmt.Printf("\n\n")
	fmt.Printf("%-8s %11s %12s %12s %12s %9s %8s %12s\n",
		"backend", "iter (ms)", "compute (ms)", "tp-comm (ms)", "dp-comm (ms)", "sm (ms)", "TB/GPU", "samples/s")
	for _, b := range bks {
		res, err := train.Simulate(cfg, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s %11.1f %12.1f %12.1f %12.1f %9.1f %8d %12.2f\n",
			res.Backend, res.IterTime*1e3, res.Compute*1e3, res.TPComm*1e3, res.DPComm*1e3,
			res.SMPenalty*1e3, res.CommTBs, res.Throughput)
	}

	if *tout != "" {
		// Host spans are excluded by default, so the file depends only on
		// simulated time: two runs of the same command are byte-identical.
		if err := writeFile(*tout, func(w io.Writer) error { return cfg.Trace.WriteChrome(w) }); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", *tout)
	}
	if *mout != "" {
		if err := writeFile(*mout, cfg.Metrics.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", *mout)
	}
}

// writeFile streams render into path.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ressclsim:", err)
	os.Exit(1)
}
