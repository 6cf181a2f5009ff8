package dag

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

func ringTopo(t *testing.T, nNodes, gpn int) *topo.Topology {
	t.Helper()
	return topo.New(nNodes, gpn, topo.A100())
}

func TestRingAllGatherDeps(t *testing.T) {
	a, err := expert.RingAllGather(4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(a, topo.New(1, 4, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	if g.NTasks() != 12 {
		t.Fatalf("tasks = %d, want 12", g.NTasks())
	}
	// Step-0 tasks have no deps; each later transfer of a chunk depends
	// on exactly the previous hop.
	for i, task := range g.Tasks {
		switch task.Step {
		case 0:
			if len(g.Deps.Row(i)) != 0 {
				t.Errorf("step-0 task %v has deps %v", task.Transfer, g.Deps.Row(i))
			}
		default:
			if len(g.Deps.Row(i)) != 1 {
				t.Errorf("task %v has %d deps, want 1", task.Transfer, len(g.Deps.Row(i)))
				continue
			}
			dep := g.Tasks[g.Deps.Row(i)[0]]
			if dep.Chunk != task.Chunk || dep.Step != task.Step-1 || dep.Dst != task.Src {
				t.Errorf("task %v depends on %v; want previous hop of same chunk", task.Transfer, dep.Transfer)
			}
		}
	}
}

func TestTopoOrderCoversAllTasks(t *testing.T) {
	a, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(a, ringTopo(t, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != g.NTasks() {
		t.Fatalf("topo order covers %d of %d tasks", len(order), g.NTasks())
	}
	pos := make([]int, g.NTasks())
	for i, id := range order {
		pos[id] = i
	}
	for t2 := range g.Tasks {
		for _, d := range g.Deps.Row(t2) {
			if pos[d] >= pos[t2] {
				t.Fatalf("dependency %d not before task %d in topo order", d, t2)
			}
		}
	}
}

func TestRejectsRankMismatch(t *testing.T) {
	a, _ := expert.RingAllGather(4)
	if _, err := Build(a, topo.New(1, 8, topo.A100())); err == nil {
		t.Fatal("expected rank/topology mismatch error")
	}
}

func TestRejectsUndeliveredRead(t *testing.T) {
	// Rank 0 sends chunk 1 (owned by rank 1) without ever receiving it.
	a := &ir.Algorithm{
		Name: "bad", Op: ir.OpAllGather, NRanks: 2, NChunks: 2,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 1, Step: 0, Chunk: 1, Type: ir.CommRecv},
		},
	}
	if _, err := Build(a, topo.New(1, 2, topo.A100())); err == nil {
		t.Fatal("expected undelivered-read error")
	}
}

func TestRejectsSameStepWriteConflict(t *testing.T) {
	// Two writes into (rank 2, chunk 0) at the same step.
	a := &ir.Algorithm{
		Name: "conflict", Op: ir.OpAllReduce, NRanks: 3, NChunks: 3,
		Transfers: []ir.Transfer{
			{Src: 0, Dst: 2, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
			{Src: 1, Dst: 2, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
		},
	}
	if _, err := Build(a, topo.New(1, 3, topo.A100())); err == nil {
		t.Fatal("expected same-step write conflict error")
	}
}

func TestCommLinksInterNodeShareNIC(t *testing.T) {
	tp := topo.New(2, 8, topo.A100()) // 4 NICs/node, 2 GPUs per NIC
	a, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(a, tp)
	if err != nil {
		t.Fatal(err)
	}
	// Two inter-node tasks from GPU 0 and GPU 1 (which share NIC 0)
	// must share a communication link; two intra-node tasks on
	// different pairs must not.
	var fromG0, fromG1, intraA, intraB ir.TaskID = -1, -1, -1, -1
	for i, task := range g.Tasks {
		inter := !tp.SameNode(task.Src, task.Dst)
		switch {
		case inter && task.Src == 0 && fromG0 < 0:
			fromG0 = ir.TaskID(i)
		case inter && task.Src == 1 && fromG1 < 0:
			fromG1 = ir.TaskID(i)
		case !inter && task.Src == 0 && task.Dst == 1 && intraA < 0:
			intraA = ir.TaskID(i)
		case !inter && task.Src == 2 && task.Dst == 3 && intraB < 0:
			intraB = ir.TaskID(i)
		}
	}
	if fromG0 < 0 || fromG1 < 0 || intraA < 0 || intraB < 0 {
		t.Fatal("could not find probe tasks")
	}
	if !sharesLink(g, fromG0, fromG1) {
		t.Error("inter-node tasks from NIC-sharing GPUs should share a link")
	}
	if sharesLink(g, intraA, intraB) {
		t.Error("distinct intra-node pairs should not share a link")
	}
}

// Property: for random ring-like algorithms the dependency graph is
// always acyclic and decomposes by chunk.
func TestPropertyDAGAcyclicByChunk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7) // 2..8 ranks
		a, err := expert.RingAllReduce(n)
		if err != nil {
			return false
		}
		g, err := Build(a, topo.New(1, n, topo.A100()))
		if err != nil {
			return false
		}
		if _, err := g.TopoOrder(); err != nil {
			return false
		}
		for t2 := range g.Tasks {
			for _, d := range g.Deps.Row(t2) {
				if g.Tasks[d].Chunk != g.Tasks[t2].Chunk {
					return false // data deps must stay within a chunk
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInitiallyHolds(t *testing.T) {
	if !InitiallyHolds(ir.OpAllGather, 3, 3, 8, 8) {
		t.Error("AllGather: rank 3 should hold chunk 3")
	}
	if InitiallyHolds(ir.OpAllGather, 3, 4, 8, 8) {
		t.Error("AllGather: rank 3 should not hold chunk 4")
	}
	if !InitiallyHolds(ir.OpAllGather, 3, 11, 8, 16) {
		t.Error("AllGather: rank 3 should hold chunk 11 when nChunks=16")
	}
	if !InitiallyHolds(ir.OpAllReduce, 0, 7, 8, 8) {
		t.Error("AllReduce: every rank holds every chunk")
	}
	if !InitiallyHolds(ir.OpReduceScatter, 5, 2, 8, 8) {
		t.Error("ReduceScatter: every rank holds every chunk")
	}
}

// Every per-ID row is a capacity-capped window of a shared backing
// array: appending to one row must copy it, never overwrite the row
// that follows it.
func TestRowsAreCapped(t *testing.T) {
	a, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(a, ringTopo(t, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, rows CSR) {
		t.Helper()
		for i := 0; i+1 < rows.Len(); i++ {
			if len(rows.Row(i)) == 0 || len(rows.Row(i+1)) == 0 {
				continue
			}
			next := append([]ir.TaskID(nil), rows.Row(i+1)...)
			_ = append(rows.Row(i), -1)
			for j, x := range rows.Row(i + 1) {
				if x != next[j] {
					t.Fatalf("%s: appending to row %d changed row %d", name, i, i+1)
				}
			}
		}
	}
	check("Deps", g.Deps)
	check("Dependents", g.Dependents)
	check("ChunkTasks", g.ChunkTasks)
	check("LinkTasks", g.LinkTasks)
	for i := 0; i+1 < len(g.ConnPaths); i++ {
		links, nextLinks := g.ConnPaths[i].CommLinks, g.ConnPaths[i+1].CommLinks
		next := append([]topo.LinkID(nil), nextLinks...)
		_ = append(links, -1)
		for j, l := range nextLinks {
			if l != next[j] {
				t.Fatalf("Links: appending to row %d changed row %d", i, i+1)
			}
		}
	}
}

// Dependents is exactly the reverse adjacency of Deps: every edge
// appears once in each direction, rows ascend, and no task depends on
// itself.
func TestDependentsMirrorDeps(t *testing.T) {
	for _, name := range []string{"mesh-allreduce", "rhd-allreduce", "ring-allgather"} {
		b, _ := expert.Lookup(name)
		a, err := b.Build(8)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(a, ringTopo(t, 1, 8))
		if err != nil {
			t.Fatal(err)
		}
		type edge struct{ from, on ir.TaskID }
		fwd, rev := map[edge]int{}, map[edge]int{}
		for from := range g.Tasks {
			deps := g.Deps.Row(from)
			for i, on := range deps {
				if on == ir.TaskID(from) || (i > 0 && deps[i-1] >= on) {
					t.Fatalf("%s: Deps[%d] = %v is not ascending and self-free", name, from, deps)
				}
				fwd[edge{ir.TaskID(from), on}]++
			}
		}
		for on := range g.Tasks {
			dependents := g.Dependents.Row(on)
			for i, from := range dependents {
				if from == ir.TaskID(on) || (i > 0 && dependents[i-1] >= from) {
					t.Fatalf("%s: Dependents[%d] = %v is not ascending and self-free", name, on, dependents)
				}
				rev[edge{from, ir.TaskID(on)}]++
			}
		}
		if len(fwd) != len(rev) {
			t.Fatalf("%s: %d dependency edges but %d reverse edges", name, len(fwd), len(rev))
		}
		for e := range fwd {
			if rev[e] != 1 {
				t.Fatalf("%s: edge %v missing from Dependents", name, e)
			}
		}
	}
}

// Connection numbering must keep connections apart at any rank count.
// Packing Src·NRanks+Dst into 32 bits merged 1→0 and 65536→1 at 65,537
// ranks.
func TestConnectionsBeyond65536Ranks(t *testing.T) {
	g := &Graph{
		Algo: &ir.Algorithm{NRanks: 65537},
		Tasks: []ir.Task{
			{ID: 0, Transfer: ir.Transfer{Src: 65536, Dst: 1}},
			{ID: 1, Transfer: ir.Transfer{Src: 1, Dst: 0}},
			{ID: 2, Transfer: ir.Transfer{Src: 65536, Dst: 1}},
		},
	}
	firsts := g.indexConns()
	if fmt.Sprint(firsts, g.Conn) != "[1 0] [1 0 1]" {
		t.Fatalf("firsts %v conn %v, want [1 0] [1 0 1]", firsts, g.Conn)
	}
	g.ConnPaths = make([]topo.Path, len(firsts))
	rows := g.ByConn([]ir.TaskID{2, 1, 0})
	if fmt.Sprint(rows.Row(0), rows.Row(1)) != "[1] [2 0]" {
		t.Fatalf("ByConn rows %v %v, want [1] [2 0]", rows.Row(0), rows.Row(1))
	}
}

// Steps are compared at full width: a step of 1<<32 follows step 0
// rather than aliasing it.
func TestFarStepsKeepProgramOrder(t *testing.T) {
	a := &ir.Algorithm{
		Name: "far", Op: ir.OpAllGather, NRanks: 3, NChunks: 3,
		Transfers: []ir.Transfer{
			{Src: 1, Dst: 2, Step: 1 << 32, Chunk: 0},
			{Src: 0, Dst: 1, Step: 0, Chunk: 0},
		},
	}
	g, err := Build(a, topo.New(1, 3, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Deps.Row(1)) != 1 || g.Deps.Row(1)[0] != 0 {
		t.Fatalf("Deps = %v, want the step-1<<32 forward to depend on the step-0 delivery", g.Deps)
	}
}

// sharesLink reports whether tasks a and b occupy a common link.
func sharesLink(g *Graph, a, b ir.TaskID) bool {
	for _, la := range g.Links(a) {
		for _, lb := range g.Links(b) {
			if la == lb {
				return true
			}
		}
	}
	return false
}
