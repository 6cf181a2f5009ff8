package bench

import (
	"fmt"
	"strings"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/exec"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// Figure3 compares runtime-interpreter execution with direct kernel
// execution of the *same* ResCCL-scheduled plan, across buffer sizes —
// isolating the overhead the paper attributes to online plan parsing
// (average loss 17.1%).
func Figure3(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 8, topo.A100())
	bufs := bufSweep(opts, []int64{32 << 20, 128 << 20, 512 << 20, 2 << 30})
	cases := []struct{ label, name string }{
		{"expert HM-AllReduce", "hm-allreduce"},
		{"synthesized TECCL-AllGather", "synth:teccl-allgather"},
	}
	t := &Table{
		ID:     "fig3",
		Title:  "Runtime interpreter vs direct kernel execution (same schedule)",
		Header: []string{"Algorithm", "Buffer", "direct (GB/s)", "interpreted (GB/s)", "loss"},
		Notes:  []string{"paper: average performance loss 17.1%"},
	}
	// One cell per (algorithm, buffer): both execution modes of one
	// point. The two compilations per case are deduplicated by the plan
	// cache across cells.
	type point struct{ direct, interp float64 }
	points := make([]point, len(cases)*len(bufs))
	algos := make([]*ir.Algorithm, len(cases))
	for i, c := range cases {
		algo, err := expert.BuildOn(c.name, tp.NNodes, tp.GPUsPerNode)
		if err != nil {
			return nil, err
		}
		algos[i] = algo
	}
	err := runCells(opts, len(points), func(c int) error {
		ci, fi := c/len(bufs), c%len(bufs)
		req := backend.Request{Algo: algos[ci], Topo: tp}
		direct, err := compile(opts, &backend.ResCCL{Options: core.Options{Mode: kernel.ModeDirect}}, req)
		if err != nil {
			return err
		}
		interp, err := compile(opts, &backend.ResCCL{Options: core.Options{Mode: kernel.ModeInterpreted}}, req)
		if err != nil {
			return err
		}
		rd, err := simulate(opts, exec.Request{Topo: tp}, bufs[fi], direct)
		if err != nil {
			return err
		}
		ri, err := simulate(opts, exec.Request{Topo: tp}, bufs[fi], interp)
		if err != nil {
			return err
		}
		points[c] = point{direct: rd[0].AlgoBW, interp: ri[0].AlgoBW}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var lossSum float64
	var lossN int
	for ci, c := range cases {
		for fi, buf := range bufs {
			p := points[ci*len(bufs)+fi]
			loss := 1 - p.interp/p.direct
			lossSum += loss
			lossN++
			t.AddRow(c.label, mbLabel(buf), gb(p.direct), gb(p.interp), pct(loss))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured average loss %s", pct(lossSum/float64(lossN))))
	return []*Table{t}, nil
}

// Figure4 reproduces the TB-parallelism microbenchmark: P2P transfers
// over a single NIC emulating a two-GPU AllGather while varying the
// number of thread blocks driving the link. The profile uses the
// measured small-TB regime (a single TB sustains a quarter of NIC line
// rate), so bandwidth rises until four TBs saturate the link and
// degrades beyond it under the Eq. 1 contention penalty.
func Figure4(opts Options) ([]*Table, error) {
	opts = opts.init()
	prof := topo.A100()
	prof.TBCapInter = prof.NICBW / 4
	tp := topo.New(2, 2, prof, topo.WithNICs(1))

	t := &Table{
		ID:     "fig4",
		Title:  "Single-NIC bandwidth vs number of TBs (P2P AllGather of two GPUs)",
		Header: []string{"TBs", "bandwidth (GB/s)", "of line rate"},
		Notes:  []string{"paper: bandwidth rises up to 4 TBs, then degrades"},
	}
	counts := []int{1, 2, 3, 4, 6, 8, 12, 16}
	if opts.Quick {
		counts = []int{1, 2, 4, 8}
	}
	bws := make([]float64, len(counts))
	err := runCells(opts, len(counts), func(i int) error {
		bw, err := singleNICBandwidth(opts, tp, counts[i])
		if err != nil {
			return err
		}
		bws[i] = bw
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range counts {
		t.AddRow(fmt.Sprintf("%d", k), gb(bws[i]), pct(bws[i]/prof.NICBW))
	}
	return []*Table{t}, nil
}

// singleNICBandwidth lowers a kernel with k TB pairs each streaming
// chunks from rank 0 to rank 2 (across the NIC), one task per pair,
// and returns the achieved aggregate NIC goodput.
func singleNICBandwidth(opts Options, tp *topo.Topology, k int) (float64, error) {
	algo := &ir.Algorithm{
		Name:    fmt.Sprintf("p2p-%dtb", k),
		Op:      ir.OpAllGather,
		NRanks:  tp.NRanks(),
		NChunks: 4 * k,
	}
	for j := 0; j < k; j++ {
		algo.Transfers = append(algo.Transfers, ir.Transfer{
			Src: 0, Dst: 2, Step: 0, Chunk: ir.ChunkID(4 * j), Type: ir.CommRecv,
		})
	}
	g, err := dag.Build(algo, tp)
	if err != nil {
		return 0, err
	}
	parts := make([]talloc.Part, k)
	for t := range parts {
		parts[t] = talloc.Part{Prefix: fmt.Sprintf("tb%d/", t), Tasks: []ir.TaskID{ir.TaskID(t)}}
	}
	kern, err := kernel.Generate(sched.TaskIDOrder(g), talloc.ConnectionBased(g, parts))
	if err != nil {
		return 0, err
	}
	// 1 GiB buffer over 4k chunks of 1 MiB → each TB streams 256/k
	// micro-batches; total NIC payload is constant at 256 MiB.
	res, err := simulate(opts, exec.Request{Topo: tp}, 1<<30, &backend.Plan{Algo: algo, Kernel: kern})
	if err != nil {
		return 0, err
	}
	moved := float64(res[0].Instances) * res[0].Plan.ChunkBytes
	return moved / res[0].Completion, nil
}

// hmARSource renders the Fig. 16 ResCCLang program parameterized for an
// nNodes×gpn cluster — the input of the workflow-scalability study.
func hmARSource(nNodes, gpn int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "def ResCCLAlgo(nRanks=%d, nChannels=4, nWarps=16, AlgoName=\"HM\", OpType=\"Allreduce\", GPUPerNode=%d, NICPerNode=%d):\n",
		nNodes*gpn, gpn, max(1, gpn/2))
	fmt.Fprintf(&b, "    nNodes = %d\n", nNodes)
	fmt.Fprintf(&b, "    nGpusperNode = %d\n", gpn)
	b.WriteString(`    nChunks = nNodes * nGpusperNode
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = baseStep * (nGpusperNode - 1) + offset
                    transfer(srcRank, dstRank, step, (dstRank + baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + baseStep
                transfer(srcRank, dstRank, step, (srcRank + nChunks - baseStep * nGpusperNode) % nChunks, rrc)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes - 1):
                srcRank = nGpusperNode * n + r
                dstRank = (srcRank + nGpusperNode) % nChunks
                step = nNodes * (nGpusperNode - 1) + nNodes - 1 + baseStep
                chunkId = (srcRank + nChunks - (baseStep + nNodes - 1) * nGpusperNode) % nChunks
                transfer(srcRank, dstRank, step, chunkId, recv)
    for n in range(0, nNodes):
        for r in range(0, nGpusperNode):
            for baseStep in range(0, nNodes):
                for offset in range(0, nGpusperNode - 1):
                    srcRank = nGpusperNode * n + r
                    dstRank = (r + offset + 1) % nGpusperNode + nGpusperNode * n
                    step = nNodes * (nGpusperNode - 1) + 2 * nNodes - 2 + baseStep
                    transfer(srcRank, dstRank, step, (srcRank + baseStep * nGpusperNode) % nChunks, recv)
`)
	return b.String()
}

// Figure10a measures the offline workflow phases (parse, analyze,
// schedule, alloc, lower) compiling the HM AllReduce DSL program for
// clusters of 8 to 1024 emulated GPUs.
func Figure10a(opts Options) ([]*Table, error) {
	opts = opts.init()
	t := &Table{
		ID:     "fig10a",
		Title:  "Offline workflow phase scalability (HM AllReduce via ResCCLang)",
		Header: []string{"GPUs", "tasks", "parse", "analyze", "schedule", "alloc", "lower", "total"},
		Notes:  []string{"paper: ~11 minutes at 1024 GPUs on their host; offline, once per job"},
	}
	scales := [][2]int{{2, 4}, {2, 8}, {4, 8}, {8, 8}, {16, 8}, {32, 8}, {64, 8}, {128, 8}}
	if opts.Quick {
		scales = [][2]int{{2, 4}, {2, 8}, {4, 8}, {8, 8}}
	}
	// The rows report *measured* wall-clock phase timings, so this is
	// the one experiment whose cell outputs are not bit-reproducible
	// between runs (serial or parallel); the task counts are.
	rows := make([][]string, len(scales))
	err := runCells(opts, len(scales), func(i int) error {
		nNodes, gpn := scales[i][0], scales[i][1]
		tp := topo.New(nNodes, gpn, topo.A100())
		src := hmARSource(nNodes, gpn)
		c, err := core.CompileDSL(opts.ctx(), src, tp, core.Options{})
		if err != nil {
			return fmt.Errorf("fig10a %d GPUs: %w", nNodes*gpn, err)
		}
		ph := c.Phases
		rows[i] = []string{fmt.Sprintf("%d", nNodes*gpn),
			fmt.Sprintf("%d", len(c.Graph.Tasks)),
			ph.Parse.String(), ph.Analyze.String(), ph.Schedule.String(), ph.Alloc.String(),
			ph.Lower.String(), ph.Total().String()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return []*Table{t}, nil
}

// Figure10b compares the HPDS scheduler against the round-robin baseline
// on the paper's 8-GPU two-server topology, for expert and synthesized
// algorithms.
func Figure10b(opts Options) ([]*Table, error) {
	opts = opts.init()
	tp := topo.New(2, 4, topo.A100())
	buf := int64(512 << 20)
	if opts.Quick {
		buf = 128 << 20
	}
	t := &Table{
		ID:     "fig10b",
		Title:  "HPDS vs round-robin scheduling (2 servers × 4 GPUs)",
		Header: []string{"Algorithm", "Sequential (GB/s)", "RR (GB/s)", "HPDS (GB/s)", "vs RR", "vs Seq"},
		Notes: []string{
			"paper: HPDS delivers speedups of up to 187%",
			"the simulated runtime is self-timed (instances start when dependencies allow), which masks much of the static-order gap the paper's runtime exhibits; the Sequential column bounds the cost of giving up cross-chunk interleaving entirely",
		},
	}
	cases := []struct{ label, name string }{
		{"HM-AllGather", "hm-allgather"},
		{"HM-AllReduce", "hm-allreduce"},
		{"TACCL-AllGather", "synth:taccl-allgather"},
		{"TACCL-AllReduce", "synth:taccl-allreduce"},
		{"TECCL-AllGather", "synth:teccl-allgather"},
		{"TECCL-AllReduce", "synth:teccl-allreduce"},
	}
	policies := []sched.Policy{sched.PolicySequential, sched.PolicyRR, sched.PolicyHPDS}
	algos := make([]*ir.Algorithm, len(cases))
	for i, c := range cases {
		algo, err := expert.BuildOn(c.name, tp.NNodes, tp.GPUsPerNode)
		if err != nil {
			return nil, err
		}
		algos[i] = algo
	}
	bws := make([]float64, len(cases)*len(policies))
	err := runCells(opts, len(bws), func(cell int) error {
		ci, pi := cell/len(policies), cell%len(policies)
		pol := policies[pi]
		plan, err := compile(opts, &backend.ResCCL{Options: core.Options{Policy: pol}},
			backend.Request{Algo: algos[ci], Topo: tp})
		if err != nil {
			return fmt.Errorf("fig10b %s/%v: %w", cases[ci].label, pol, err)
		}
		res, err := simulate(opts, exec.Request{Topo: tp}, buf, plan)
		if err != nil {
			return fmt.Errorf("fig10b %s/%v: %w", cases[ci].label, pol, err)
		}
		bws[cell] = res[0].AlgoBW
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ci, c := range cases {
		seq, rr, hpds := bws[ci*len(policies)], bws[ci*len(policies)+1], bws[ci*len(policies)+2]
		t.AddRow(c.label, gb(seq), gb(rr), gb(hpds),
			fmt.Sprintf("%.2fx", hpds/rr),
			fmt.Sprintf("%.2fx", hpds/seq))
	}
	return []*Table{t}, nil
}
