// Command ressclc is the ResCCL offline compiler: it reads a ResCCLang
// program, runs the full backend-optimization workflow (dependency
// analysis, HPDS scheduling, state-based TB allocation, kernel
// lowering), verifies the algorithm's collective semantics on the data
// plane, and reports the compiled plan.
//
// Usage:
//
//	ressclc -in algo.rcl -nodes 2 -gpus 8 [-policy hpds|rr|seq]
//	        [-alloc state|conn] [-dump-kernel] [-simulate 1GiB]
//	ressclc -list-algos
//	ressclc -algo hm-allreduce -nodes 2 -gpus 8 -simulate 1GiB
//	ressclc -algo hm-allreduce -nodes 2 -gpus 8 -vet [-strict]
//	        [-budget 32] [-max-gap 150] [-cert-out cert.json]
//	ressclc -tune -nodes 2 -gpus 8 -out dispatch.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/analyze/cert"
	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/rt"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/simcost"
	"github.com/resccl/resccl/internal/topo"
	"github.com/resccl/resccl/internal/trace"
	"github.com/resccl/resccl/internal/tune"
)

func main() {
	var (
		in       = flag.String("in", "", "ResCCLang source file (required)")
		nodes    = flag.Int("nodes", 2, "number of servers")
		gpus     = flag.Int("gpus", 8, "GPUs per server")
		profile  = flag.String("profile", "a100", "hardware profile: a100 or v100")
		fabric   = flag.String("topology", "flat", "inter-node fabric: flat (single switch), clos (leaf/spine) or rail (rail-optimized)")
		spines   = flag.Int("spines", 4, "number of spine switches for -topology clos/rail")
		policy   = flag.String("policy", "hpds", "scheduling policy: hpds, rr or seq")
		alloc    = flag.String("alloc", "state", "TB allocation: state or conn")
		dump     = flag.Bool("dump-kernel", false, "print the generated kernel's TB programs")
		simulate = flag.String("simulate", "", "simulate execution with the given per-rank buffer (e.g. 256MiB, 1GiB)")
		timeline = flag.Bool("timeline", false, "with -simulate: draw an ASCII Gantt chart of TB activity (first 2 ranks)")
		execRT   = flag.Int("execute", 0, "run the kernel on the concurrent data-plane runtime with N micro-batches and verify the result")
		out      = flag.String("out", "", "write the compiled plan (kernel + topology) to this JSON file")
		analyze  = flag.String("analyze", "", "print the Eq. 3-5 strategy estimates for the given per-rank buffer (e.g. 1GiB)")
		planIn   = flag.String("plan", "", "load a previously compiled plan file instead of compiling -in")
		algoName = flag.String("algo", "", "compile a registered expert algorithm by name instead of a DSL file (see -list-algos)")
		listAlgo = flag.Bool("list-algos", false, "list the expert algorithm registry and exit")
		vetMode  = flag.Bool("vet", false, "statically analyze the compiled plan (deadlock, hazard, feasibility, dead-code and resource-budget lints) and exit: 0 clean or warnings only, 3 errors (any diagnostic with -strict)")
		strict   = flag.Bool("strict", false, "with -vet: promote warnings to errors, so any diagnostic exits 3 (CI gates)")
		budgetTB = flag.Int("budget", 0, "with -vet: SM/channel budget — the max concurrently active thread blocks per rank before the budget-tb lint fires (0 = default 32)")
		maxGap   = flag.Float64("max-gap", 0, "with -vet: certify the plan and warn when its optimality gap exceeds this percentage above the α–β lower bound (0 disables)")
		certOut  = flag.String("cert-out", "", "with -vet: certify the plan at 64 MiB and write the resource-efficiency certificate JSON to this path ('-' for stdout)")
		tuneMode = flag.Bool("tune", false, "run the autotuning sweep on the -nodes/-gpus topology and emit a dispatch table (JSON to -out, or stdout)")
		quick    = flag.Bool("quick", false, "with -tune: shrink the sweep grid and search effort for a fast smoke run")
		seed     = flag.Int64("seed", 1, "with -tune: search seed; the same topology and seed emit byte-identical tables")
	)
	flag.Parse()
	if *listAlgo {
		fmt.Println("registered expert algorithms:")
		for _, b := range expert.Registry() {
			params := "nRanks"
			if b.NParams == 2 {
				params = "nNodes, gpusPerNode"
			}
			fmt.Printf("  %-24s %v(%s)\n", b.Name, b.Op, params)
		}
		return
	}
	if *planIn != "" {
		if *vetMode {
			f, err := os.Open(*planIn)
			if err != nil {
				fatal(err)
			}
			k, ktp, err := kernel.Load(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			vetPlan(k, ktp, vetConfig{strict: *strict, budgetTB: *budgetTB, maxGap: *maxGap, certOut: *certOut})
			return
		}
		runLoadedPlan(*planIn, *simulate, *timeline, *execRT)
		return
	}
	if *in == "" && *algoName == "" && !*tuneMode {
		flag.Usage()
		os.Exit(2)
	}
	var src []byte
	if *in != "" {
		var err error
		src, err = os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
	}

	var prof topo.Profile
	switch strings.ToLower(*profile) {
	case "a100":
		prof = topo.A100()
	case "v100":
		prof = topo.V100()
	default:
		fatal(fmt.Errorf("unknown profile %q", *profile))
	}
	var tp *topo.Topology
	switch strings.ToLower(*fabric) {
	case "flat":
		tp = topo.New(*nodes, *gpus, prof)
	case "clos":
		tp = topo.NewClos(*nodes, *gpus, prof, *spines)
	case "rail":
		tp = topo.NewRail(*nodes, *gpus, prof, *spines)
	default:
		fatal(fmt.Errorf("unknown topology %q (flat, clos or rail)", *fabric))
	}

	opts := core.Options{}
	switch strings.ToLower(*policy) {
	case "hpds":
		opts.Policy = sched.PolicyHPDS
	case "rr":
		opts.Policy = sched.PolicyRR
	case "seq":
		opts.Policy = sched.PolicySequential
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	switch strings.ToLower(*alloc) {
	case "state":
		opts.Alloc = core.AllocStateBased
	case "conn":
		opts.Alloc = core.AllocConnectionBased
	default:
		fatal(fmt.Errorf("unknown allocation %q", *alloc))
	}

	if *tuneMode {
		if *in != "" || *algoName != "" {
			fatal(fmt.Errorf("-tune is mutually exclusive with -in and -algo"))
		}
		runTune(tp, *quick, *seed, *out)
		return
	}

	var c *core.Compiled
	if *algoName != "" {
		if *in != "" {
			fatal(fmt.Errorf("-in and -algo are mutually exclusive"))
		}
		if _, ok := expert.Lookup(*algoName); !ok {
			fatal(fmt.Errorf("unknown algorithm %q (see -list-algos)", *algoName))
		}
		algo, err := expert.BuildOn(*algoName, *nodes, *gpus)
		if err != nil {
			fatal(err)
		}
		c, err = core.Compile(context.Background(), algo, tp, opts)
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		c, err = core.CompileDSL(context.Background(), string(src), tp, opts)
		if err != nil {
			fatal(err)
		}
	}

	if *vetMode {
		vetPlan(c.Kernel, tp, vetConfig{strict: *strict, budgetTB: *budgetTB, maxGap: *maxGap, certOut: *certOut})
		return
	}

	fmt.Printf("algorithm:      %s (%v, %d ranks, %d transfers)\n",
		c.Algo.Name, c.Algo.Op, c.Algo.NRanks, len(c.Algo.Transfers))
	fmt.Printf("topology:       %s\n", tp)
	fmt.Printf("correctness:    data-plane %v postcondition verified\n", c.Algo.Op)
	fmt.Printf("schedule:       %v, %d tasks in %d sub-pipelines\n",
		opts.Policy, c.Graph.NTasks(), c.Pipeline.NSubs())
	fmt.Printf("allocation:     %v, %d TBs total, max %d per GPU\n",
		opts.Alloc, c.Kernel.NTBs(), c.Kernel.MaxTBsPerRank())
	fmt.Printf("phases:         parse %v, analyze %v, schedule %v, alloc %v, lower %v (total %v)\n",
		c.Phases.Parse, c.Phases.Analyze, c.Phases.Schedule, c.Phases.Alloc, c.Phases.Lower, c.Phases.Total())

	if *analyze != "" {
		buf, err := parseSize(*analyze)
		if err != nil {
			fatal(err)
		}
		est, err := core.EstimateStrategies(c.Graph, buf, simcost.DefaultChunkBytes)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("strategy est.:  %s\n", est)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := kernel.Save(c.Kernel, tp, f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("plan:           written to %s\n", *out)
	}
	if *dump {
		dumpKernel(c.Kernel)
	}
	if *simulate != "" {
		buf, err := parseSize(*simulate)
		if err != nil {
			fatal(err)
		}
		res := simulatePlan(tp, c.Kernel, buf, *timeline)
		fmt.Printf("simulation:     %s per rank in %.3f ms → %.1f GB/s algorithm bandwidth (%d micro-batches, link util %.1f%%)\n",
			*simulate, res.Completion*1e3, res.AlgoBW/1e9, res.Plan.NMicroBatches, 100*res.MeanLinkUtilization())
		if *timeline {
			fmt.Println()
			fmt.Print(trace.RenderTimeline(c.Kernel, res, 100, 2))
		}
	}
	if *execRT > 0 {
		res, err := rt.Execute(rt.Config{Kernel: c.Kernel, MicroBatches: *execRT})
		if err != nil {
			fatal(err)
		}
		if err := res.Verify(); err != nil {
			fatal(err)
		}
		fmt.Printf("runtime:        %d TB goroutines executed %d invocations in %v; all %d micro-batches verified\n",
			c.Kernel.NTBs(), res.Instances, res.Elapsed.Round(time.Microsecond), *execRT)
	}
}

// simulatePlan simulates kernel k with buf bytes per rank on tp through
// exec.Simulate, the library's own simulation path, at the default
// chunk size.
func simulatePlan(tp *topo.Topology, k *kernel.Kernel, buf int64, timeline bool) *sim.Result {
	algo := k.Graph.Algo
	outs := []exec.Outcome{{Plan: &backend.Plan{Algo: algo, Kernel: k}}}
	if err := exec.Simulate(exec.Request{Topo: tp, RecordTimeline: timeline}, []exec.Call{{Algo: algo, BufferBytes: buf}}, outs); err != nil {
		fatal(err)
	}
	return outs[0].Result
}

// runTune sweeps the topology and writes the emitted dispatch table:
// JSON to outPath when given, stdout otherwise (summary on stderr so
// the JSON stays pipeable).
func runTune(tp *topo.Topology, quick bool, seed int64, outPath string) {
	start := time.Now()
	m := obs.NewMetrics()
	res, err := tune.Sweep(context.Background(), tp, tune.Options{Quick: quick, Parallel: true, Seed: seed, Metrics: m})
	if err != nil {
		fatal(err)
	}
	data, err := res.Table.MarshalJSON()
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	summary := fmt.Sprintf("tuned %s: %d of %d cells measured, %d simulations with the sketch search, %d dispatch entries, hash %s… (%v)",
		tp, len(res.Cells), res.Grid, m.Counter("sim.runs"), len(res.Table.Entries), res.Table.Hash()[:12],
		time.Since(start).Round(time.Millisecond))
	if outPath == "" {
		os.Stdout.Write(data)
		fmt.Fprintln(os.Stderr, summary)
		return
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("dispatch table: written to %s\n", outPath)
	fmt.Println(summary)
}

// runLoadedPlan loads a serialized plan and simulates/executes it.
func runLoadedPlan(path, simulate string, timeline bool, execRT int) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	k, tp, err := kernel.Load(f)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plan:           %s (%s mode, %d TBs) on %s\n", k.Name, k.Mode, k.NTBs(), tp)
	if simulate != "" {
		buf, err := parseSize(simulate)
		if err != nil {
			fatal(err)
		}
		res := simulatePlan(tp, k, buf, timeline)
		fmt.Printf("simulation:     %s per rank in %.3f ms → %.1f GB/s algorithm bandwidth\n",
			simulate, res.Completion*1e3, res.AlgoBW/1e9)
		if timeline {
			fmt.Print(trace.RenderTimeline(k, res, 100, 2))
		}
	}
	if execRT > 0 {
		res, err := rt.Execute(rt.Config{Kernel: k, MicroBatches: execRT})
		if err != nil {
			fatal(err)
		}
		if err := res.Verify(); err != nil {
			fatal(err)
		}
		fmt.Printf("runtime:        %d invocations verified across %d micro-batches\n", res.Instances, execRT)
	}
}

func dumpKernel(k *kernel.Kernel) {
	fmt.Println("kernel:")
	for _, tb := range k.TBs {
		fmt.Printf("  TB %3d rank %2d (%s) %s, %d slots:\n", tb.ID, tb.Rank, tb.Label, tb.Order, len(tb.Slots))
		for _, p := range tb.Slots {
			fmt.Printf("    %s\n", k.DescribeSlot(p))
		}
	}
}

func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasSuffix(upper, "GIB"), strings.HasSuffix(upper, "GB"):
		mult = 1 << 30
		s = s[:strings.IndexAny(upper, "Gg")]
	case strings.HasSuffix(upper, "MIB"), strings.HasSuffix(upper, "MB"):
		mult = 1 << 20
		s = s[:strings.IndexAny(upper, "Mm")]
	case strings.HasSuffix(upper, "KIB"), strings.HasSuffix(upper, "KB"):
		mult = 1 << 10
		s = s[:strings.IndexAny(upper, "Kk")]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// vetConfig carries the -vet mode's resource-certification knobs.
type vetConfig struct {
	strict   bool
	budgetTB int
	maxGap   float64
	certOut  string
}

// vetPlan runs the full static analysis suite — plus the
// resource-budget lints and, when requested, full certification — over
// a compiled plan and exits with the vet convention: 0 when the plan is
// clean or carries only warnings, 3 when any error fired (-strict
// promotes warnings to errors). Operational failures keep the
// compiler's usual exit 1.
func vetPlan(k *kernel.Kernel, tp *topo.Topology, cfg vetConfig) {
	r, err := analyze.Plan(k, analyze.Options{})
	if err != nil {
		fatal(err)
	}
	if tp != nil {
		copts := cert.Options{BufferBytes: 64 << 20, Budget: cert.Budget{MaxTBsPerRank: cfg.budgetTB}}
		r.Attach(k.Graph, cert.BudgetLints(k, tp, copts)...)
		if cfg.maxGap > 0 || cfg.certOut != "" {
			res := simulatePlan(tp, k, copts.BufferBytes, false)
			crt, err := cert.FromCompletion(k, tp, copts, res.Completion)
			if err != nil {
				fatal(err)
			}
			r.Attach(k.Graph, cert.GapLint(crt, cfg.maxGap)...)
			if cfg.certOut != "" {
				data, err := crt.MarshalIndent()
				if err != nil {
					fatal(err)
				}
				data = append(data, '\n')
				if cfg.certOut == "-" {
					os.Stdout.Write(data)
				} else if err := os.WriteFile(cfg.certOut, data, 0o644); err != nil {
					fatal(err)
				}
			}
		}
	}
	fmt.Print(r.String())
	errs, warns, _ := r.Counts()
	if cfg.strict {
		errs += warns
	}
	if errs > 0 {
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ressclc:", err)
	os.Exit(1)
}
