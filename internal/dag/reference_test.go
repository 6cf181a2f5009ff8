package dag

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/plangen"
	"github.com/resccl/resccl/internal/topo"
)

// refGraph is the dependency analysis computed the plain way: a
// duplicate map for validation and comparison sorts for every order.
// Build must reproduce it exactly.
type refGraph struct {
	tasks                                   []ir.Task
	deps, dependents, chunkTasks, linkTasks [][]ir.TaskID
}

// refValidate is Validate's transfer checks with a duplicate map.
func refValidate(a *ir.Algorithm) error {
	seen := make(map[ir.Transfer]bool, len(a.Transfers))
	for _, t := range a.Transfers {
		if err := t.Validate(a.NRanks, a.NChunks); err != nil {
			return fmt.Errorf("ir: algorithm %q: %w", a.Name, err)
		}
		key := t
		key.Type = ir.CommRecv
		if seen[key] {
			return fmt.Errorf("ir: algorithm %q: duplicate transfer %v", a.Name, t)
		}
		seen[key] = true
	}
	return nil
}

func refBuild(algo *ir.Algorithm, tp *topo.Topology) (*refGraph, error) {
	if err := refValidate(algo); err != nil {
		return nil, err
	}
	n := len(algo.Transfers)
	g := &refGraph{
		tasks:      make([]ir.Task, n),
		chunkTasks: make([][]ir.TaskID, algo.NChunks),
		linkTasks:  make([][]ir.TaskID, tp.NResources()),
	}
	for i, tr := range algo.Transfers {
		g.tasks[i].Transfer = tr
	}
	slices.SortFunc(g.tasks, func(a, b ir.Task) int {
		return cmp.Or(cmp.Compare(a.Step, b.Step), cmp.Compare(a.Chunk, b.Chunk),
			cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	for i := range g.tasks {
		task := &g.tasks[i]
		task.ID = ir.TaskID(i)
		g.chunkTasks[task.Chunk] = append(g.chunkTasks[task.Chunk], task.ID)
		for _, l := range tp.Path(task.Src, task.Dst).CommLinks {
			g.linkTasks[l] = append(g.linkTasks[l], task.ID)
		}
	}

	type access struct {
		rank  ir.Rank
		chunk ir.ChunkID
		step  ir.Step
		write bool
		task  ir.TaskID
	}
	var accs []access
	for _, task := range g.tasks {
		accs = append(accs, access{task.Src, task.Chunk, task.Step, false, task.ID},
			access{task.Dst, task.Chunk, task.Step, true, task.ID})
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	slices.SortFunc(accs, func(a, b access) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.chunk, b.chunk),
			cmp.Compare(a.step, b.step), cmp.Compare(b2i(a.write), b2i(b.write)), cmp.Compare(a.task, b.task))
	})
	type edge struct{ from, on ir.TaskID }
	var edges []edge
	for lo := 0; lo < len(accs); {
		hi := lo + 1
		for hi < len(accs) && accs[hi].rank == accs[lo].rank && accs[hi].chunk == accs[lo].chunk {
			hi++
		}
		loc := accs[lo:hi]
		lo = hi
		rank, chunk := loc[0].rank, loc[0].chunk
		lastWrite := -1
		for i, a := range loc {
			if !a.write {
				if lastWrite >= 0 {
					edges = append(edges, edge{a.task, loc[lastWrite].task})
				} else if !AlgoHolds(algo, rank, chunk) {
					return nil, fmt.Errorf(
						"dag: algorithm %q: task %v reads chunk %d at rank %d before any task delivers it and rank %d does not initially hold it",
						algo.Name, g.tasks[a.task].Transfer, chunk, rank, rank)
				}
				continue
			}
			other := -1
			for j, b := range loc {
				if j != i && b.step == a.step {
					other = j
					break
				}
			}
			if other >= 0 {
				return nil, fmt.Errorf(
					"dag: algorithm %q: tasks %v and %v access rank %d chunk %d at the same step %d with a write — ordering is ambiguous",
					algo.Name, g.tasks[a.task].Transfer, g.tasks[loc[other].task].Transfer, rank, chunk, a.step)
			}
			if lastWrite >= 0 {
				edges = append(edges, edge{a.task, loc[lastWrite].task})
			}
			for _, r := range loc[lastWrite+1 : i] {
				edges = append(edges, edge{a.task, r.task})
			}
			lastWrite = i
		}
	}
	rows := func(from func(edge) ir.TaskID, to func(edge) ir.TaskID) [][]ir.TaskID {
		slices.SortFunc(edges, func(a, b edge) int {
			return cmp.Or(cmp.Compare(from(a), from(b)), cmp.Compare(to(a), to(b)))
		})
		out := make([][]ir.TaskID, n)
		for i, e := range edges {
			if i == 0 || e != edges[i-1] {
				out[from(e)] = append(out[from(e)], to(e))
			}
		}
		return out
	}
	g.deps = rows(func(e edge) ir.TaskID { return e.from }, func(e edge) ir.TaskID { return e.on })
	g.dependents = rows(func(e edge) ir.TaskID { return e.on }, func(e edge) ir.TaskID { return e.from })
	return g, nil
}

// equivalenceCorpus lists every registry algorithm on 1×8, 2×8 and 4×4
// and a plangen sample on each shape, with the topology to build on.
func equivalenceCorpus(t *testing.T) (algos []*ir.Algorithm, topos []*topo.Topology) {
	t.Helper()
	for _, sh := range [][2]int{{1, 8}, {2, 8}, {4, 4}} {
		tp := topo.New(sh[0], sh[1], topo.A100())
		nRanks := sh[0] * sh[1]
		for _, name := range expert.Names() {
			b, _ := expert.Lookup(name)
			params := []int{nRanks}
			if b.NParams == 2 {
				params = []int{sh[0], sh[1]}
			}
			a, err := b.Build(params...)
			if err != nil {
				continue // the builder does not support this shape
			}
			algos, topos = append(algos, a), append(topos, tp)
		}
		rng := rand.New(rand.NewSource(int64(nRanks*10 + sh[0])))
		for i := 0; i < 4; i++ {
			for _, gen := range []func(*rand.Rand, int) (*ir.Algorithm, error){plangen.RandomAllGather, plangen.RandomAllReduce} {
				a, err := gen(rng, nRanks)
				if err != nil {
					t.Fatal(err)
				}
				algos, topos = append(algos, a), append(topos, tp)
			}
		}
	}
	return algos, topos
}

func equalRows(t *testing.T, what string, got CSR, want [][]ir.TaskID) {
	t.Helper()
	if err := got.Check(len(want)); err != nil {
		t.Fatalf("%s: malformed CSR: %v", what, err)
	}
	for i := range want {
		if row := got.Row(i); !slices.Equal(row, want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, row, want[i])
		} else if cap(row) != len(row) {
			t.Fatalf("%s[%d]: cap %d != len %d", what, i, cap(row), len(row))
		}
	}
}

// Build equals the comparison-sort reference on the whole corpus.
func TestBuildMatchesReference(t *testing.T) {
	algos, topos := equivalenceCorpus(t)
	for i, a := range algos {
		g, err := Build(a, topos[i])
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		ref, err := refBuild(a, topos[i])
		if err != nil {
			t.Fatalf("%s: reference: %v", a.Name, err)
		}
		if !slices.Equal(g.Tasks, ref.tasks) {
			t.Fatalf("%s on %d ranks: Tasks differ from the reference", a.Name, a.NRanks)
		}
		what := fmt.Sprintf("%s on %d ranks: ", a.Name, a.NRanks)
		equalRows(t, what+"Deps", g.Deps, ref.deps)
		equalRows(t, what+"Dependents", g.Dependents, ref.dependents)
		equalRows(t, what+"ChunkTasks", g.ChunkTasks, ref.chunkTasks)
		equalRows(t, what+"LinkTasks", g.LinkTasks, ref.linkTasks)
		// Connections are numbered densely in (Src, Dst) order, and every
		// task reads its own connection's path.
		for i, task := range g.Tasks {
			c := g.Conn[i]
			if p := g.Path(task.ID); p.Src != task.Src || p.Dst != task.Dst {
				t.Fatalf("%stask %d on %d→%d reads the path of %d→%d", what, i, task.Src, task.Dst, p.Src, p.Dst)
			}
			if c > 0 && cmp.Or(cmp.Compare(g.ConnPaths[c-1].Src, task.Src), cmp.Compare(g.ConnPaths[c-1].Dst, task.Dst)) >= 0 {
				t.Fatalf("%sconnection %d does not follow connection %d in (Src, Dst) order", what, c, c-1)
			}
		}
		if len(g.ConnPaths) != int(slices.Max(g.Conn))+1 {
			t.Fatalf("%s%d paths for %d connections", what, len(g.ConnPaths), slices.Max(g.Conn)+1)
		}
	}
}

// Seeded mutants (a transfer moved to another's step or chunk, or
// dropped) make Build fail with exactly the reference's error text,
// both hazard errors included.
func TestBuildErrorsMatchReference(t *testing.T) {
	algos, topos := equivalenceCorpus(t)
	rng := rand.New(rand.NewSource(5))
	var ambiguous, undelivered int
	for i, a := range algos {
		for m := 0; m < 12; m++ {
			mut := *a
			mut.Transfers = slices.Clone(a.Transfers)
			x, y := rng.Intn(len(mut.Transfers)), rng.Intn(len(mut.Transfers))
			switch m % 3 {
			case 0:
				mut.Transfers[x].Step = mut.Transfers[y].Step
			case 1:
				mut.Transfers = slices.Delete(mut.Transfers, x, x+1)
			case 2:
				mut.Transfers[x].Chunk = mut.Transfers[y].Chunk
			}
			_, err := Build(&mut, topos[i])
			_, refErr := refBuild(&mut, topos[i])
			if fmt.Sprint(err) != fmt.Sprint(refErr) {
				t.Fatalf("%s mutant %d: Build error %v, reference %v", a.Name, m, err, refErr)
			}
			switch msg := fmt.Sprint(err); {
			case strings.Contains(msg, "ordering is ambiguous"):
				ambiguous++
			case strings.Contains(msg, "before any task delivers it"):
				undelivered++
			}
		}
	}
	if ambiguous == 0 || undelivered == 0 {
		t.Fatalf("mutants hit %d same-step and %d undelivered-read errors; want both kinds", ambiguous, undelivered)
	}
}
