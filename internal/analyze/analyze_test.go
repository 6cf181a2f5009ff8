package analyze_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/analyze"
	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// compile builds a registered expert algorithm into a kernel on the
// given shape.
func compile(t testing.TB, name string, nodes, gpus int) *kernel.Kernel {
	t.Helper()
	b, ok := expert.Lookup(name)
	if !ok {
		t.Fatalf("unknown algorithm %q", name)
	}
	params := []int{nodes * gpus}
	if b.NParams == 2 {
		params = []int{nodes, gpus}
	}
	algo, err := expert.Build(name, params...)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	c, err := core.Compile(context.Background(), algo, topo.New(nodes, gpus, topo.A100()), core.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c.Kernel
}

// TestRegisteredPlansClean proves the analyzer accepts every plan the
// compiler produces: the full check suite reports zero errors across
// the whole registry on a 2×4 shape.
func TestRegisteredPlansClean(t *testing.T) {
	for _, b := range expert.Registry() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			k := compile(t, b.Name, 2, 4)
			r, err := analyze.Plan(k, analyze.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Clean() {
				t.Fatalf("analyzer rejects a valid plan:\n%s", r)
			}
			if err := r.Err(); err != nil {
				t.Fatalf("Err() on clean report: %v", err)
			}
		})
	}
}

// mutate applies a named corruption to a fresh copy of the kernel's TB
// programs and returns the mutant. Mutations mirror the fuzz corpus.
func cloneKernel(k *kernel.Kernel) *kernel.Kernel {
	out := *k
	out.TBs = make([]*kernel.TBProgram, len(k.TBs))
	for i, tb := range k.TBs {
		cp := *tb
		cp.Slots = append([]ir.Primitive(nil), tb.Slots...)
		out.TBs[i] = &cp
	}
	out.SendTB = append([]int(nil), k.SendTB...)
	out.RecvTB = append([]int(nil), k.RecvTB...)
	out.LinkPreds = dag.CSR{Off: slices.Clone(k.LinkPreds.Off), Items: slices.Clone(k.LinkPreds.Items)}
	out.TaskSub = append([]int(nil), k.TaskSub...)
	out.TaskPos = append([]int(nil), k.TaskPos...)
	return &out
}

// seedDeadlock swaps the first two slots of one TB, breaking the
// global-order subsequence property the rendezvous graph relies on.
func seedDeadlock(k *kernel.Kernel) *kernel.Kernel {
	m := cloneKernel(k)
	for _, tb := range m.TBs {
		if len(tb.Slots) >= 2 {
			tb.Slots[0], tb.Slots[1] = tb.Slots[1], tb.Slots[0]
			return m
		}
	}
	return m
}

func TestSeededDeadlockFlagged(t *testing.T) {
	k := compile(t, "ring-allreduce", 1, 8)
	m := seedDeadlock(k)
	r, err := analyze.Plan(m, analyze.Options{Checks: analyze.CheckDeadlock})
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatalf("seeded deadlock not flagged:\n%s", r)
	}
	found := false
	for _, d := range r.Diags {
		if d.Code == "deadlock" && d.Severity == analyze.SevError {
			found = true
			if !strings.Contains(d.Message, "→") && !strings.Contains(d.Message, "stranded") {
				t.Errorf("deadlock diagnostic lacks a primitive path: %s", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("no deadlock diagnostic in:\n%s", r)
	}
}

// dropRecv removes the last recv-side primitive of the plan, so its
// transfer never executes.
func dropRecv(k *kernel.Kernel) *kernel.Kernel {
	m := cloneKernel(k)
	for i := len(m.TBs) - 1; i >= 0; i-- {
		tb := m.TBs[i]
		for j := len(tb.Slots) - 1; j >= 0; j-- {
			if tb.Slots[j].Kind != ir.PrimSend {
				tb.Slots = append(tb.Slots[:j:j], tb.Slots[j+1:]...)
				return m
			}
		}
	}
	return m
}

// TestCoverageAnyScaleAndGroup: the coverage pass proves the
// postcondition of every plan — a 512-rank plan and a process-group
// plan included — so a dropped transfer is an error, never a skip.
func TestCoverageAnyScaleAndGroup(t *testing.T) {
	hier, err := expert.Build("hier-allreduce", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := expert.Build("ring-allreduce", 4)
	if err != nil {
		t.Fatal(err)
	}
	group, err := ir.Embed(ring, []ir.Rank{1, 2, 5, 6}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		algo *ir.Algorithm
		tp   *topo.Topology
	}{
		{hier, topo.NewRail(64, 8, topo.A100(), 8)},
		{group, topo.New(2, 4, topo.A100())},
	} {
		c, err := core.Compile(context.Background(), tc.algo, tc.tp, core.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", tc.algo.Name, err)
		}
		for _, k := range []*kernel.Kernel{c.Kernel, dropRecv(c.Kernel)} {
			r, err := analyze.Plan(k, analyze.Options{Checks: analyze.CheckCoverage})
			if err != nil {
				t.Fatal(err)
			}
			mutant := k != c.Kernel
			if errs, _, infos := r.Counts(); mutant != (errs > 0) || infos > 0 {
				t.Errorf("%s (dropped recv: %v): coverage report:\n%s", tc.algo.Name, mutant, r)
			}
		}
	}
}

// seedHazard drops one read-after-write data dependency from the graph:
// the kernel's rendezvous/program-order edges no longer cover the pair,
// so the producer's write and the consumer's read race. This models the
// exact failure class the pass exists for — a scheduler that lost a
// dependency the DSL semantics require.
func seedHazard(t testing.TB, k *kernel.Kernel) *kernel.Kernel {
	t.Helper()
	m := cloneKernel(k)
	g := *k.Graph
	m.Graph = &g
	for ti := range g.Tasks {
		task := g.Tasks[ti]
		for _, d := range g.Deps.Row(ti) {
			dep := g.Tasks[d]
			// A true RAW edge: dep delivers the very location task reads,
			// and the two primitives live on different TBs so nothing else
			// orders them.
			if dep.Dst != task.Src || dep.Chunk != task.Chunk {
				continue
			}
			if k.SendTB[ti] == k.RecvTB[d] {
				continue
			}
			g.Deps = withoutItem(g.Deps, ti, d)
			g.Dependents = withoutItem(g.Dependents, int(d), ir.TaskID(ti))
			return m
		}
	}
	t.Fatal("no droppable RAW dependency found")
	return m
}

// withoutItem returns a copy of c with item x removed from row i.
func withoutItem(c dag.CSR, i int, x ir.TaskID) dag.CSR {
	out := dag.CSR{Off: slices.Clone(c.Off)}
	for r := range c.Len() {
		for _, y := range c.Row(r) {
			if r != i || y != x {
				out.Items = append(out.Items, y)
			}
		}
		out.Off[r+1] = int32(len(out.Items))
	}
	return out
}

func TestSeededHazardFlagged(t *testing.T) {
	k := compile(t, "ring-allgather", 1, 8)
	m := seedHazard(t, k)
	r, err := analyze.Plan(m, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Clean() {
		t.Fatalf("seeded hazard not flagged:\n%s", r)
	}
	found := false
	for _, d := range r.Diags {
		if strings.HasPrefix(d.Code, "hazard-") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no hazard diagnostic in:\n%s", r)
	}
}

func TestNilKernelRejected(t *testing.T) {
	if _, err := analyze.Plan(nil, analyze.Options{}); err == nil {
		t.Fatal("nil kernel accepted")
	}
}

// golden compares the report against testdata/<name>.golden,
// rewriting under -update (the trace golden convention).
func golden(t *testing.T, name string, r *analyze.Report) {
	t.Helper()
	got := r.String()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenDiagnostics(t *testing.T) {
	base := compile(t, "ring-allreduce", 1, 4)
	cases := []struct {
		name   string
		kernel *kernel.Kernel
		checks analyze.Checks
	}{
		{"clean", base, 0},
		{"deadlocked", seedDeadlock(base), analyze.CheckDeadlock},
		{"oversub-link", seedOversub(base), analyze.CheckPipelineInvariants | analyze.CheckFeasibility},
		{"dead-primitive", deadPrimitivePlan(t), analyze.CheckDeadCode | analyze.CheckCoverage},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r, err := analyze.Plan(tc.kernel, analyze.Options{Checks: tc.checks})
			if err != nil {
				t.Fatal(err)
			}
			golden(t, tc.name, r)
		})
	}
}

// misplaceSend turns the first receive slot of the plan into a send:
// a send primitive in its task's receiver TB.
func misplaceSend(k *kernel.Kernel) *kernel.Kernel {
	m := cloneKernel(k)
	for _, tb := range m.TBs {
		for s := range tb.Slots {
			if tb.Slots[s].Kind != ir.PrimSend {
				tb.Slots[s].Kind = ir.PrimSend
				return m
			}
		}
	}
	return m
}

// corruptLinkPreds makes the link predecessor table's offsets decrease.
func corruptLinkPreds(k *kernel.Kernel) *kernel.Kernel {
	m := cloneKernel(k)
	m.LinkPreds.Off[1] = m.LinkPreds.Off[2] + 1
	return m
}

// The structure pass rejects the corruptions a slot that names its
// task can still carry, and every other pass stays total on them.
func TestStructureRejectsMisplacedSlots(t *testing.T) {
	base := compile(t, "ring-allreduce", 1, 4)
	for name, c := range map[string]struct {
		k    *kernel.Kernel
		want string
	}{
		"send in receiver TB": {misplaceSend(base), "holds primitive for rank"},
		"corrupt link preds":  {corruptLinkPreds(base), "corrupt link predecessor table"},
		"task id out of range": {func() *kernel.Kernel {
			m := cloneKernel(base)
			m.TBs[0].Slots[0].Task = ir.TaskID(len(m.Graph.Tasks))
			return m
		}(), "references unknown task"},
	} {
		r, err := analyze.Plan(c.k, analyze.Options{})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range r.Diags {
			found = found || (d.Code == "structure" && d.Severity == analyze.SevError && strings.Contains(d.Message, c.want))
		}
		if !found {
			t.Errorf("%s: no structure error mentions %q:\n%s", name, c.want, r)
		}
	}
}

// seedOversub collapses the schedule echo into one sub-pipeline so
// every link's saturation window is violated at once.
func seedOversub(k *kernel.Kernel) *kernel.Kernel {
	m := cloneKernel(k)
	for t := range m.TaskSub {
		m.TaskSub[t] = 0
	}
	return m
}

// deadPrimitivePlan compiles a hand-written ReduceScatter whose extra
// transfer delivers a chunk to a rank that does not own it and feeds
// nothing downstream.
func deadPrimitivePlan(t testing.TB) *kernel.Kernel {
	t.Helper()
	algo := &ir.Algorithm{
		Name: "dead-rs", Op: ir.OpReduceScatter, NRanks: 4, NChunks: 4,
		Transfers: []ir.Transfer{
			// Chunk 0 reduced onto its owner, rank 0.
			{Src: 1, Dst: 0, Step: 0, Chunk: 0, Type: ir.CommRecvReduceCopy},
			{Src: 2, Dst: 0, Step: 1, Chunk: 0, Type: ir.CommRecvReduceCopy},
			{Src: 3, Dst: 0, Step: 2, Chunk: 0, Type: ir.CommRecvReduceCopy},
			// Chunk 1 onto rank 1, and so on.
			{Src: 0, Dst: 1, Step: 0, Chunk: 1, Type: ir.CommRecvReduceCopy},
			{Src: 2, Dst: 1, Step: 1, Chunk: 1, Type: ir.CommRecvReduceCopy},
			{Src: 3, Dst: 1, Step: 2, Chunk: 1, Type: ir.CommRecvReduceCopy},
			{Src: 0, Dst: 2, Step: 0, Chunk: 2, Type: ir.CommRecvReduceCopy},
			{Src: 1, Dst: 2, Step: 1, Chunk: 2, Type: ir.CommRecvReduceCopy},
			{Src: 3, Dst: 2, Step: 2, Chunk: 2, Type: ir.CommRecvReduceCopy},
			{Src: 0, Dst: 3, Step: 0, Chunk: 3, Type: ir.CommRecvReduceCopy},
			{Src: 1, Dst: 3, Step: 1, Chunk: 3, Type: ir.CommRecvReduceCopy},
			{Src: 2, Dst: 3, Step: 2, Chunk: 3, Type: ir.CommRecvReduceCopy},
			// Dead: chunk 0 also shipped to rank 2, which never needs it.
			{Src: 0, Dst: 2, Step: 3, Chunk: 0, Type: ir.CommRecv},
		},
	}
	c, err := core.Compile(context.Background(), algo, topo.New(1, 4, topo.A100()), core.Options{})
	if err != nil {
		t.Fatalf("compile dead-rs: %v", err)
	}
	return c.Kernel
}

// BenchmarkPlanLargest analyzes the heaviest registered plan; the
// acceptance budget is 50ms per full analysis.
func BenchmarkPlanLargest(b *testing.B) {
	largest, most := "", 0
	for _, bl := range expert.Registry() {
		k := compile(b, bl.Name, 2, 8)
		if n := k.TotalSlots(); n > most {
			largest, most = bl.Name, n
		}
	}
	k := compile(b, largest, 2, 8)
	b.Logf("largest plan: %s, %d slots", largest, most)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := analyze.Plan(k, analyze.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Clean() {
			b.Fatalf("unexpected diagnostics:\n%s", r)
		}
	}
	b.StopTimer()
	if per := b.Elapsed() / time.Duration(b.N); per > 50*time.Millisecond {
		b.Fatalf("analysis took %v per plan, budget is 50ms", per)
	}
}

// ExampleReport_String shows the stable report format.
func ExampleReport_String() {
	r := &analyze.Report{Kernel: "demo"}
	fmt.Print(r.String())
	// Output: plan demo: 0 error(s), 0 warning(s), 0 note(s)
}

// TestDiagOrderGolden pins the canonical diagnostic order when several
// passes fire at the same schedule step: (severity, pass code, the
// primary task's step and rank, task ID, message). The diagnostics are
// attached deliberately scrambled — with same-step findings from two
// different passes interleaved — and the golden holds the one
// canonical rendering.
func TestDiagOrderGolden(t *testing.T) {
	k := compile(t, "ring-allreduce", 1, 4)
	g := k.Graph

	// Pick one task per (step, rank) pair used below.
	at := func(step, rank int) ir.TaskID {
		for id, task := range g.Tasks {
			if int(task.Step) == step && int(task.Src) == rank {
				return ir.TaskID(id)
			}
		}
		t.Fatalf("no task at step %d rank %d", step, rank)
		return 0
	}
	mk := func(code string, sev analyze.Severity, step, rank int) analyze.Diag {
		return analyze.Diag{Code: code, Severity: sev,
			Message: fmt.Sprintf("synthetic %s finding at step %d rank %d", code, step, rank),
			Tasks:   []ir.TaskID{at(step, rank)}}
	}
	r := &analyze.Report{Kernel: "order-demo"}
	// Scrambled: two passes ("alpha-pass", "beta-pass") firing at the
	// same steps, ranks out of order, a plan-wide note in between.
	r.Attach(g,
		mk("beta-pass", analyze.SevWarn, 2, 1),
		mk("alpha-pass", analyze.SevWarn, 2, 3),
		analyze.Diag{Code: "alpha-pass", Severity: analyze.SevWarn, Message: "plan-wide note"},
		mk("alpha-pass", analyze.SevWarn, 2, 1),
		mk("beta-pass", analyze.SevWarn, 0, 2),
		mk("alpha-pass", analyze.SevWarn, 0, 0),
		mk("beta-pass", analyze.SevError, 2, 2),
		mk("alpha-pass", analyze.SevWarn, 1, 2),
	)
	golden(t, "diag-order", r)

	// The order must be invariant under attachment order: re-attaching
	// the same findings one by one in reverse yields the same report.
	r2 := &analyze.Report{Kernel: "order-demo"}
	for i := len(r.Diags) - 1; i >= 0; i-- {
		r2.Attach(g, r.Diags[i])
	}
	if r2.String() != r.String() {
		t.Errorf("order depends on attachment sequence:\n--- bulk ---\n%s--- reversed ---\n%s", r.String(), r2.String())
	}
}

// TestWithMatchesAttach checks that a report copy with diagnostics
// attached is the report Attach gives, and that the original is left
// as it was.
func TestWithMatchesAttach(t *testing.T) {
	m := seedDeadlock(compile(t, "ring-allreduce", 1, 8))
	g := m.Graph
	analyse := func() *analyze.Report {
		r, err := analyze.Plan(m, analyze.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	shared := analyse()
	if len(shared.Diags) < 2 {
		t.Fatalf("the seeded plan gives %d diagnostics, want several:\n%s", len(shared.Diags), shared)
	}
	before := shared.String()
	var extra []analyze.Diag
	for i := len(g.Tasks) - 1; i >= 0; i -= len(g.Tasks)/5 + 1 {
		extra = append(extra, analyze.Diag{Code: "budget-tb", Severity: analyze.SevWarn,
			Message: fmt.Sprintf("synthetic lint %d", i), Tasks: []ir.TaskID{ir.TaskID(i)}})
	}
	extra = append(extra, shared.Diags[0], analyze.Diag{Code: "budget-mem", Severity: analyze.SevWarn, Message: "plan-wide"})
	for _, ds := range [][]analyze.Diag{nil, extra[:1], extra} {
		got := shared.With(g, ds...)
		want := analyse()
		want.Attach(g, ds...)
		if got.String() != want.String() {
			t.Errorf("With(%d diagnostics):\n%swant\n%s", len(ds), got, want)
		}
		if shared.String() != before {
			t.Fatalf("With(%d diagnostics) changed the original report:\n%swas\n%s", len(ds), shared, before)
		}
	}
}
