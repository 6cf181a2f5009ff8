package backend

import (
	"context"
	"fmt"
	"slices"

	"github.com/resccl/resccl/internal/collective"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/talloc"
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

// Compile implements Backend. It runs the caller's algorithm, so it
// first proves the algorithm's postcondition, as ResCCL does.
func (m *MSCCL) Compile(ctx context.Context, req Request) (*Plan, error) {
	return compileConnectionBased(ctx, m.Name(), req, func(req Request) (*ir.Algorithm, error) {
		if err := collective.Check(req.Algo); err != nil {
			return nil, fmt.Errorf("msccl: algorithm %q fails its %v postcondition: %w", req.Algo.Name, req.Algo.Op, err)
		}
		return req.Algo, nil
	}, m.partition)
}

// partition runs expert algorithms with stage annotations at stage
// level, a channel per stage group, and synthesizer output lazily at
// algorithm level (§2.1), one pass per micro-batch, replicated across
// channel instances that each own a chunk stripe.
func (m *MSCCL) partition(g *dag.Graph) ([]talloc.Part, bool) {
	if g.Algo.NStages() > 1 {
		return m.stageParts(g), false
	}
	parts := make([]talloc.Part, min(mscclInstances, g.Algo.NChunks))
	for i := range parts {
		parts[i].Prefix = fmt.Sprintf("inst%d/", i)
	}
	for t := range g.Tasks {
		i := int(g.Tasks[t].Chunk) % len(parts)
		parts[i].Tasks = append(parts[i].Tasks, ir.TaskID(t))
	}
	return parts, true
}

// stageParts partitions tasks into stage groups: consecutive stages
// with identical connection sets merge into one channel.
func (m *MSCCL) stageParts(g *dag.Graph) []talloc.Part {
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
	var parts []talloc.Part
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
		var even, odd []ir.TaskID
		if intraOnly(g, stageConns[s]) {
			for _, t := range tasks {
				if g.Tasks[t].Chunk%2 == 0 {
					even = append(even, t)
				} else {
					odd = append(odd, t)
				}
			}
		}
		if len(even) > 0 && len(odd) > 0 {
			parts = append(parts,
				talloc.Part{Prefix: fmt.Sprintf("stage%d.ch0/", group), Tasks: even},
				talloc.Part{Prefix: fmt.Sprintf("stage%d.ch1/", group), Tasks: odd})
		} else {
			parts = append(parts, talloc.Part{Prefix: fmt.Sprintf("stage%d/", group), Tasks: tasks})
		}
		group++
		s = e
	}
	return parts
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
