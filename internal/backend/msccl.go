package backend

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/obs"
)

// MSCCL emulates Microsoft's MSCCL runtime (which reuses the NCCL
// backend underneath): it executes custom algorithms with
// connection-based TB allocation and a runtime interpreter.
//
// Expert algorithms carrying stage annotations run at stage level
// (§2.1): every stage gets its own communication channel — its own set
// of per-connection TBs — so stages pipeline across micro-batches at
// the cost of extra, mostly idle thread blocks. Consecutive stages that
// use exactly the same connection set share one channel, as an expert
// would write in MSCCLang. Synthesizer output (no stage annotations)
// runs lazily at algorithm level.
type MSCCL struct{}

// mscclInstances replicates algorithm-level (synthesized) plans across
// parallel channel instances, splitting chunks between them — the
// `instances` mechanism of MSCCL XML plans. Table 2's CCL configuration
// uses 4. Expert plans define their own channels via stages and are not
// replicated.
const mscclInstances = 4

// NewMSCCL returns an MSCCL-like backend.
func NewMSCCL() *MSCCL { return &MSCCL{} }

// Name implements Backend.
func (m *MSCCL) Name() string { return "MSCCL" }

// Compile implements Backend.
func (m *MSCCL) Compile(ctx context.Context, req Request) (*Plan, error) {
	if req.Algo == nil || req.Topo == nil {
		return nil, fmt.Errorf("msccl: request needs an algorithm and topology")
	}
	if !req.Protocol.Valid() {
		return nil, fmt.Errorf("msccl: undefined protocol tier %d", int(req.Protocol))
	}
	if err := ctxCheck(ctx, "msccl", "dependency analysis"); err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := dag.Build(req.Algo, req.Topo)
	if err != nil {
		return nil, err
	}
	if err := ctxCheck(ctx, "msccl", "TB layout"); err != nil {
		return nil, err
	}
	var specs []tbSpec
	stageLevel := req.Algo.NStages() > 1
	if stageLevel {
		specs = m.stageLevelTBs(g)
	} else {
		// Algorithm-level execution: replicate the plan across channel
		// instances, each owning a chunk stripe with its own
		// per-connection TBs.
		inst := min(mscclInstances, req.Algo.NChunks)
		perInst := make([][]ir.TaskID, inst)
		for t := range g.Tasks {
			i := int(g.Tasks[t].Chunk) % inst
			perInst[i] = append(perInst[i], ir.TaskID(t))
		}
		for i, tasks := range perInst {
			if len(tasks) == 0 {
				continue
			}
			specs = append(specs, connectionTBs(g, tasks, fmt.Sprintf("inst%d/", i))...)
		}
	}
	k, err := buildKernel(req.Algo.Name, g, specs, kernel.MBMajor, kernel.ModeInterpreted)
	if err != nil {
		return nil, err
	}
	// Synthesizer output has no stage annotations and runs lazily at
	// algorithm level (§2.1): one pass per micro-batch.
	k.MBBarrier = !stageLevel
	k.Protocol = req.Protocol
	stages := []obs.Stage{{Name: "compile", Duration: time.Since(start)}}
	return vet(&Plan{Backend: m.Name(), Algo: req.Algo, Kernel: k, Stages: stages}, req.Topo)
}

// stageLevelTBs partitions tasks into stage groups (consecutive stages
// with identical connection sets merged into one channel) and allocates
// connection TBs per group.
func (m *MSCCL) stageLevelTBs(g *dag.Graph) []tbSpec {
	algo := g.Algo
	nStages := algo.NStages()
	stageTasks := make([][]ir.TaskID, nStages)
	for t := range g.Tasks {
		s := algo.StageOf(g.Tasks[t].Step)
		stageTasks[s] = append(stageTasks[s], ir.TaskID(t))
	}
	stageConns := make([][]int, nStages) // each stage's connections, ascending
	for s, tasks := range stageTasks {
		byConn := g.ByConn(tasks)
		for c := range byConn.Len() {
			if len(byConn.Row(c)) > 0 {
				stageConns[s] = append(stageConns[s], c)
			}
		}
	}
	var specs []tbSpec
	group := 0
	for s := 0; s < nStages; {
		// Extend the group over consecutive stages with identical
		// connection sets.
		tasks := append([]ir.TaskID(nil), stageTasks[s]...)
		e := s + 1
		for e < nStages && slices.Equal(stageConns[s], stageConns[e]) {
			tasks = append(tasks, stageTasks[e]...)
			e++
		}
		slices.Sort(tasks)
		// MSCCLang experts boost purely intra-node stages with an extra
		// manually specified channel (§2.2): the stage's chunks are
		// split across two channels, doubling its TB footprint. The
		// extra TBs idle whenever their half of the chunks stalls and
		// contend with the first channel's TBs for the same NVLink
		// pairs — the Fig. 2 behaviour.
		if intraOnly(g, stageConns[s]) {
			var even, odd []ir.TaskID
			for _, t := range tasks {
				if g.Tasks[t].Chunk%2 == 0 {
					even = append(even, t)
				} else {
					odd = append(odd, t)
				}
			}
			if len(even) > 0 && len(odd) > 0 {
				specs = append(specs, connectionTBs(g, even, fmt.Sprintf("stage%d.ch0/", group))...)
				specs = append(specs, connectionTBs(g, odd, fmt.Sprintf("stage%d.ch1/", group))...)
				group++
				s = e
				continue
			}
		}
		specs = append(specs, connectionTBs(g, tasks, fmt.Sprintf("stage%d/", group))...)
		group++
		s = e
	}
	return specs
}

// intraOnly reports whether every connection in the set stays inside one
// node.
func intraOnly(g *dag.Graph, conns []int) bool {
	for _, c := range conns {
		if !g.ConnPaths[c].Intra {
			return false
		}
	}
	return len(conns) > 0
}
