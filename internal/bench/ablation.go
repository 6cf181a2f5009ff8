package bench

import (
	"fmt"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/topo"
)

// Ablations regenerates the design-choice studies DESIGN.md calls out:
// execution granularity (§3's three strategies on one algorithm), TB
// allocation policy, scheduling policy, and chunk size.
func Ablations(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.A100())
	buf := int64(512 << 20)
	if opts.Quick {
		buf = 128 << 20
	}
	algo, err := expert.Build("hm-allreduce", 2, 8)
	if err != nil {
		return nil, err
	}

	granularity, err := granularityAblation(opts, tp, algo, buf)
	if err != nil {
		return nil, err
	}
	alloc, err := allocAblation(opts, tp, algo, buf)
	if err != nil {
		return nil, err
	}
	policy, err := policyAblation(opts, tp, algo, buf)
	if err != nil {
		return nil, err
	}
	chunk, err := chunkAblation(opts, tp, algo, buf)
	if err != nil {
		return nil, err
	}
	contention, err := contentionAblation(opts, tp, algo, buf)
	if err != nil {
		return nil, err
	}
	tenants, err := tenantAblation(opts, tp, algo, buf)
	if err != nil {
		return nil, err
	}
	return []*Table{granularity, alloc, policy, chunk, contention, tenants}, nil
}

// tenantAblation co-schedules two identical AllReduce jobs on the same
// cluster as concurrent sessions — contention from a *real* competing
// collective rather than static background load — and reports each
// backend's slowdown relative to running alone.
func tenantAblation(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  "Two co-located tenants (identical HM AllReduce jobs, 2×8)",
		Header: []string{"Backend", "alone (GB/s)", "shared (GB/s)", "slowdown"},
		Notes: []string{
			"under co-location every backend converges toward the fabric's contended floor; ResCCL arrives from a higher clean baseline while occupying roughly half the SMs (Table 3)",
		},
	}
	bks := backends()
	rows := make([][]string, len(bks))
	err := runCells(opts, len(bks), func(c int) error {
		b := bks[c]
		plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return err
		}
		alone, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return err
		}
		shared, err := simulate(opts, exec.Request{Topo: tp}, buf, plan, plan)
		if err != nil {
			return err
		}
		rows[c] = []string{b.Name(), gb(alone[0].AlgoBW), gb(shared[0].AlgoBW),
			fmt.Sprintf("%.2fx", alone[0].AlgoBW/shared[0].AlgoBW)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// contentionAblation reproduces the §4.4 network-contention claim:
// background traffic consuming half of one NIC's capacity degrades
// backends that over-drive links (Eq. 1 penalty against the reduced
// capacity) more than ResCCL's conflict-free schedule. The background
// job is a degrade window on both of NIC 0's queues that opens with
// the run and outlasts it.
func contentionAblation(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  "Network contention (background job consuming 50% of NIC 0, HM AllReduce, 2×8)",
		Header: []string{"Backend", "clean (GB/s)", "congested (GB/s)", "degradation"},
		Notes:  []string{"§4.4: ResCCL's state-based allocation limits simultaneous connections per link, so it degrades less under contention"},
	}
	background := &fault.Schedule{Events: []fault.Event{{
		Kind: fault.KindLinkDegrade, Duration: 3600, Factor: 1 - 0.5,
		Resources: []topo.ResourceID{tp.NICEgress(0), tp.NICIngress(0)},
	}}}
	bks := backends()
	rows := make([][]string, len(bks))
	err := runCells(opts, len(bks), func(c int) error {
		b := bks[c]
		plan, err := compile(opts, b, backend.Request{Algo: algo, Topo: tp})
		if err != nil {
			return err
		}
		clean, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return err
		}
		congested, err := simulate(opts, exec.Request{Topo: tp, Faults: background}, buf, plan)
		if err != nil {
			return err
		}
		rows[c] = []string{b.Name(), gb(clean[0].AlgoBW), gb(congested[0].AlgoBW),
			pct(1 - congested[0].AlgoBW/clean[0].AlgoBW)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// granularityAblation executes the same algorithm under the three
// execution granularities of §3 (Eq. 3–5).
func granularityAblation(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  "Execution granularity (HM AllReduce, 2×8)",
		Header: []string{"Granularity", "Backend policy", "GB/s"},
		Notes:  []string{"Eq. 6: task-level ≥ stage-level ≥ algorithm-level as micro-batches grow"},
	}
	// Algorithm-level: strip the stage annotations so MSCCL runs lazily.
	lazy := *algo
	lazy.StageBounds = nil
	msccl := backend.NewMSCCL()
	cases := []struct {
		label, policy string
		a             *ir.Algorithm
		b             backend.Backend
	}{
		{"algorithm-level", "MSCCL, no stages (lazy)", &lazy, msccl},
		{"stage-level", "MSCCL, expert stage channels", algo, msccl},
		{"task-level", "ResCCL (HPDS)", algo, backend.NewResCCL()},
	}
	rows := make([][]string, len(cases))
	err := runCells(opts, len(cases), func(ci int) error {
		c := cases[ci]
		plan, err := compile(opts, c.b, backend.Request{Algo: c.a, Topo: tp})
		if err != nil {
			return err
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return err
		}
		rows[ci] = []string{c.label, c.policy, gb(res[0].AlgoBW)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// allocAblation compares connection-based and state-based TB allocation
// on the ResCCL pipeline. It needs the compiled pipeline's internals
// (TB counts), so it calls core.Compile directly instead of the cache.
func allocAblation(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  "TB allocation policy (ResCCL pipeline, HM AllReduce, 2×8)",
		Header: []string{"Allocation", "#TB/GPU", "total TBs", "GB/s"},
	}
	allocs := []core.AllocPolicy{core.AllocConnectionBased, core.AllocStateBased}
	rows := make([][]string, len(allocs))
	err := runCells(opts, len(allocs), func(c int) error {
		comp, err := core.Compile(opts.ctx(), algo, tp, core.Options{Alloc: allocs[c]})
		if err != nil {
			return err
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, &backend.Plan{Algo: algo, Kernel: comp.Kernel})
		if err != nil {
			return err
		}
		rows[c] = []string{allocs[c].String(), fmt.Sprintf("%d", comp.Kernel.MaxTBsPerRank()),
			fmt.Sprintf("%d", comp.Kernel.NTBs()), gb(res[0].AlgoBW)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// policyAblation compares the three scheduling policies. Like
// allocAblation it reads Compiled internals (sub-pipeline counts), so
// the compilations stay outside the plan cache.
func policyAblation(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  "Scheduling policy (HM AllReduce, 2×8)",
		Header: []string{"Policy", "sub-pipelines", "GB/s"},
	}
	policies := []sched.Policy{sched.PolicySequential, sched.PolicyRR, sched.PolicyHPDS}
	rows := make([][]string, len(policies))
	err := runCells(opts, len(policies), func(c int) error {
		comp, err := core.Compile(opts.ctx(), algo, tp, core.Options{Policy: policies[c]})
		if err != nil {
			return err
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, &backend.Plan{Algo: algo, Kernel: comp.Kernel})
		if err != nil {
			return err
		}
		rows[c] = []string{policies[c].String(), fmt.Sprintf("%d", comp.Pipeline.NSubs()), gb(res[0].AlgoBW)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// chunkAblation sweeps the transfer chunk size.
func chunkAblation(opts Options, tp *topo.Topology, algo *ir.Algorithm, buf int64) (*Table, error) {
	t := &Table{
		ID:     "ablation",
		Title:  "Chunk size (ResCCL, HM AllReduce, 2×8)",
		Header: []string{"Chunk", "micro-batches", "GB/s"},
		Notes:  []string{"the paper fixes 1 MiB (Table 2); smaller chunks pay more α, larger ones lose pipelining"},
	}
	chunks := []int64{256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20}
	if opts.Quick {
		chunks = []int64{512 << 10, 1 << 20, 4 << 20}
	}
	plan, err := compile(opts, backend.NewResCCL(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		return nil, err
	}
	rows := make([][]string, len(chunks))
	err = runCells(opts, len(chunks), func(c int) error {
		res, err := simulate(opts, exec.Request{Topo: tp, ChunkBytes: chunks[c]}, buf, plan)
		if err != nil {
			return err
		}
		rows[c] = []string{mbLabel(chunks[c]), fmt.Sprintf("%d", res[0].Plan.NMicroBatches), gb(res[0].AlgoBW)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
