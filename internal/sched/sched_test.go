package sched

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

func buildGraph(t *testing.T, algo *ir.Algorithm, nNodes, gpn int) *dag.Graph {
	t.Helper()
	g, err := dag.Build(algo, topo.New(nNodes, gpn, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allAlgos(t *testing.T) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	add := func(name string, a *ir.Algorithm, err error, nNodes, gpn int) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buildGraph(t, a, nNodes, gpn)
	}
	a1, e1 := expert.RingAllGather(8)
	add("ring-ag", a1, e1, 1, 8)
	a2, e2 := expert.HMAllReduce(2, 4)
	add("hm-ar", a2, e2, 2, 4)
	a3, e3 := expert.HMAllGather(2, 8)
	add("hm-ag", a3, e3, 2, 8)
	a4, e4 := synth.TACCLAllGather(2, 4)
	add("taccl-ag", a4, e4, 2, 4)
	a5, e5 := expert.BuildOn("synth:teccl-allreduce", 4, 4)
	add("teccl-ar", a5, e5, 4, 4)
	a6, e6 := expert.TreeAllReduce(8)
	add("tree-ar", a6, e6, 1, 8)
	return out
}

// Every policy must produce a valid pipeline (each task once, link
// disjointness within sub-pipelines, deps before dependents) on every
// algorithm family.
func TestAllPoliciesValid(t *testing.T) {
	graphs := allAlgos(t)
	for name, g := range graphs {
		for _, pol := range []Policy{PolicyHPDS, PolicyRR, PolicySequential} {
			p, err := Schedule(g, pol)
			if err != nil {
				t.Errorf("%s/%v: %v", name, pol, err)
				continue
			}
			if err := Validate(g, p); err != nil {
				t.Errorf("%s/%v: %v", name, pol, err)
			}
		}
	}
}

// HPDS must produce at most as many sub-pipelines as the sequential
// chunk-major policy (it interleaves chunks, never worse than draining
// one chunk at a time).
func TestHPDSNotWorseThanSequential(t *testing.T) {
	for name, g := range allAlgos(t) {
		hp, err := Schedule(g, PolicyHPDS)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seq, err := Schedule(g, PolicySequential)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hp.NSubs() > seq.NSubs() {
			t.Errorf("%s: HPDS %d sub-pipelines > sequential %d", name, hp.NSubs(), seq.NSubs())
		}
	}
}

// For ring AllGather on one node, every pair link carries n−1 tasks and
// may hold `window` of them concurrently, so HPDS needs exactly
// ⌈(n−1)/window⌉ sub-pipelines.
func TestHPDSRingSubPipelineCount(t *testing.T) {
	a, err := expert.RingAllGather(8)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, a, 1, 8)
	window := g.LinkWindows[g.Links(0)[0]]
	if window < 1 {
		t.Fatalf("bad link window %d", window)
	}
	p, err := Schedule(g, PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	want := (7 + window - 1) / window
	if p.NSubs() != want {
		t.Errorf("ring-8 HPDS sub-pipelines = %d, want %d (window %d)", p.NSubs(), want, window)
	}
}

func TestOrderedTasksIsPermutation(t *testing.T) {
	g := allAlgos(t)["hm-ar"]
	p, err := Schedule(g, PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, g.NTasks())
	for pos, id := range p.Order {
		if seen[id] {
			t.Fatalf("task %d appears twice", id)
		}
		seen[id] = true
		if p.TaskPos[id] != pos {
			t.Fatalf("task %d at position %d, TaskPos says %d", id, pos, p.TaskPos[id])
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("task %d missing", i)
		}
	}
}

// Property: random ring sizes and topology splits always schedule
// validly under HPDS, and the schedule is deterministic.
func TestPropertyHPDSValidDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nNodes := 1 + rng.Intn(3)
		gpn := 2 + rng.Intn(4)
		if nNodes == 1 && gpn < 2 {
			return true
		}
		var a *ir.Algorithm
		var err error
		if nNodes > 1 {
			a, err = expert.HMAllGather(nNodes, gpn)
		} else {
			a, err = expert.RingAllReduce(gpn)
		}
		if err != nil {
			return false
		}
		g, err := dag.Build(a, topo.New(nNodes, gpn, topo.A100()))
		if err != nil {
			return false
		}
		p1, err := Schedule(g, PolicyHPDS)
		if err != nil {
			return false
		}
		p2, err := Schedule(g, PolicyHPDS)
		if err != nil {
			return false
		}
		if p1.NSubs() != p2.NSubs() {
			return false
		}
		for i := range p1.TaskPos {
			if p1.TaskPos[i] != p2.TaskPos[i] {
				return false
			}
		}
		return Validate(g, p1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	g := allAlgos(t)["ring-ag"]
	if _, err := Schedule(g, Policy(99)); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// HPDS's priority mechanism (Algorithm 1): chunks whose tasks sit on
// lightly loaded links get scheduled ahead of chunks on a hot link. We
// build a plan where chunk 0 rides a congested link (many tasks) and
// chunk 1 rides an idle one; chunk 1's task must land in the first
// sub-pipeline even though chunk 0 has lower ID.
func TestHPDSPrefersUnderutilizedChunks(t *testing.T) {
	a := &ir.Algorithm{
		Name: "hotcold", Op: ir.OpAllReduce, NRanks: 4, NChunks: 4,
	}
	// Hot link 0→1: three sequential tasks of chunk 0 plus chunks 2,3.
	a.Transfers = append(a.Transfers,
		ir.Transfer{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
		ir.Transfer{Src: 0, Dst: 1, Step: 1, Chunk: 2, Type: ir.CommRecvReduceCopy},
		ir.Transfer{Src: 0, Dst: 1, Step: 2, Chunk: 3, Type: ir.CommRecvReduceCopy},
		// Cold link 2→3: single task of chunk 1.
		ir.Transfer{Src: 2, Dst: 3, Step: 0, Chunk: 1, Type: ir.CommRecvReduceCopy},
	)
	g, err := dag.Build(a, topo.New(1, 4, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Schedule(g, PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	// Find chunk 1's task and assert it is in sub-pipeline 0.
	for i, task := range g.Tasks {
		if task.Chunk == 1 {
			if p.TaskSub[i] != 0 {
				t.Errorf("cold-link chunk 1 scheduled in sub %d, want 0", p.TaskSub[i])
			}
			// And it should be scheduled before the hot chunks at equal
			// readiness (highest priority = lowest link load).
			if p.TaskPos[i] != 0 {
				t.Errorf("cold-link chunk scheduled at position %d, want 0", p.TaskPos[i])
			}
		}
	}
}

// plainHPDS is HPDS with every priority tie broken by chunk ID alone.
func plainHPDS(t *testing.T, g *dag.Graph) *Pipeline {
	t.Helper()
	p, err := newScheduler(g, PolicyHPDS, false).run()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// registryGraphs builds every registered algorithm that accepts the
// nNodes×gpn shape on tp.
func registryGraphs(t *testing.T, tp *topo.Topology) map[string]*dag.Graph {
	t.Helper()
	out := map[string]*dag.Graph{}
	for _, name := range expert.Names() {
		a, err := expert.BuildOn(name, tp.NNodes, tp.GPUsPerNode)
		if err != nil {
			continue // the builder refuses this shape
		}
		g, err := dag.Build(a, tp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = g
	}
	return out
}

// On 2×8 HM ReduceScatter every chunk ties on its seed priority. Broken
// by chunk ID, the first sub-pipeline holds chunks 0–7, whose
// inter-node hops all run from node 1 to node 0 and leave the opposite
// direction idle. Broken by inter-node link load, it drives both
// directions of every NIC pair.
func TestHPDSFirstSubUsesBothNICDirections(t *testing.T) {
	a, err := expert.HMReduceScatter(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, a, 2, 8)
	p, err := Schedule(g, PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	type hop struct{ src, dst int }
	pairs, first := map[hop]bool{}, map[hop]bool{}
	for tk, task := range g.Tasks {
		if g.Path(ir.TaskID(tk)).Intra {
			continue
		}
		h := hop{g.Topo.NIC(task.Src), g.Topo.NIC(task.Dst)}
		pairs[hop{min(h.src, h.dst), max(h.src, h.dst)}] = true
		if p.TaskSub[tk] == 0 {
			first[h] = true
		}
	}
	if len(pairs) == 0 {
		t.Fatal("no inter-node hops")
	}
	for pr := range pairs {
		if !first[pr] || !first[hop{pr.dst, pr.src}] {
			t.Errorf("NIC pair %d↔%d: first sub-pipeline sends %d→%d %v, %d→%d %v; want both",
				pr.src, pr.dst, pr.src, pr.dst, first[pr], pr.dst, pr.src, first[hop{pr.dst, pr.src}])
		}
	}
}

// On 2×8 HM AllReduce every chunk crosses the NIC out and back, so
// chunks from either node of a NIC pair use the same inter-node links
// and their loads tie. Broken by chunk ID, the first sub-pipeline holds
// chunks 0–7, whose first inter-node hops all leave node 0. The
// first-hop load splits it: four chunks start from each node.
func TestHPDSFirstSubSplitsHMAllReduceFirstHops(t *testing.T) {
	a, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, a, 2, 8)
	p, err := Schedule(g, PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	chunks := map[ir.ChunkID]bool{}
	for _, tk := range p.Subs[0].Tasks {
		chunks[g.Tasks[tk].Chunk] = true
	}
	perNode := make([]int, 2) // first-sub chunks by the node their first inter-node hop leaves
	for c := range chunks {
		for _, tk := range g.ChunkTasks.Row(int(c)) { // ascending step
			if !g.Path(tk).Intra {
				perNode[g.Topo.Node(g.Tasks[tk].Src)]++
				break
			}
		}
	}
	if perNode[0] != 4 || perNode[1] != 4 {
		t.Errorf("first sub-pipeline's chunks start their inter-node hops from nodes 0/1: %d/%d, want 4/4", perNode[0], perNode[1])
	}
}

// Property: over the registry, the pipeline Schedule returns never has
// a larger §4.4 makespan than HPDS with chunk-ID tie-breaks.
func TestHPDSTieBreakNeverWorsensEstimate(t *testing.T) {
	fabrics := map[string]*topo.Topology{
		"2x4":      topo.New(2, 4, topo.A100()),
		"2x8":      topo.New(2, 8, topo.A100()),
		"4x4":      topo.New(4, 4, topo.A100()),
		"4x8":      topo.New(4, 8, topo.A100()),
		"3x8 rail": topo.NewRail(3, 8, topo.A100(), 4),
	}
	for fabric, tp := range fabrics {
		for name, g := range registryGraphs(t, tp) {
			p, err := Schedule(g, PolicyHPDS)
			if err != nil {
				t.Fatalf("%s %s: %v", fabric, name, err)
			}
			if got, plain := p.Timeline().Makespan, plainHPDS(t, g).Timeline().Makespan; got > plain {
				t.Errorf("%s %s: makespan %g above chunk-ID order's %g", fabric, name, got, plain)
			}
		}
	}
}

// A single server has no inter-node link, so no tie ever breaks away
// from chunk ID: every 1×8 pipeline is the chunk-ID pipeline.
func TestHPDSSingleNodeKeepsChunkIDOrder(t *testing.T) {
	for name, g := range registryGraphs(t, topo.New(1, 8, topo.A100())) {
		s := newScheduler(g, PolicyHPDS, true)
		p, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.deviated {
			t.Errorf("%s: a pop left chunk-ID order", name)
		}
		if plain := plainHPDS(t, g); !slices.Equal(p.Order, plain.Order) || !slices.Equal(p.TaskSub, plain.TaskSub) {
			t.Errorf("%s: pipeline differs from chunk-ID order", name)
		}
	}
}
