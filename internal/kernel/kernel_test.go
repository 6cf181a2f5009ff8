package kernel

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

func generate(t *testing.T, algo *ir.Algorithm, nNodes, gpn int) *Kernel {
	t.Helper()
	g, err := dag.Build(algo, topo.New(nNodes, gpn, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.Schedule(g, sched.PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	w := talloc.EstimateWindows(p, 1<<20, 8)
	a := talloc.StateBased(p, w)
	k, err := Generate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestGenerateHM(t *testing.T) {
	algo, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := generate(t, algo, 2, 8)
	if k.Mode != ModeDirect {
		t.Error("generated kernels must be direct")
	}
	// Table 3, Topo2: 16 TBs per GPU for the expert AllReduce.
	if got := k.MaxTBsPerRank(); got != 16 {
		t.Errorf("TBs per GPU = %d, want 16 (Table 3 Topo2)", got)
	}
	if k.TotalSlots() != 2*len(k.Graph.Tasks) {
		t.Errorf("slots = %d, want %d", k.TotalSlots(), 2*len(k.Graph.Tasks))
	}
	for _, tb := range k.TBs {
		if tb.Order != TaskMajor {
			t.Error("ResCCL TBs must be task-major")
		}
	}
}

func TestLinkPredsRespectWindows(t *testing.T) {
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := generate(t, algo, 2, 4)
	g := k.Graph
	// Every link pred of t shares a link with t.
	shares := func(a, b ir.TaskID) bool {
		for _, la := range g.Links(a) {
			for _, lb := range g.Links(b) {
				if la == lb {
					return true
				}
			}
		}
		return false
	}
	for t2 := range g.Tasks {
		for _, p := range k.LinkPreds.Row(t2) {
			if !shares(ir.TaskID(t2), p) {
				t.Fatalf("task %d has link pred %d with no shared link", t2, p)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	algo, err := expert.RingAllGather(4)
	if err != nil {
		t.Fatal(err)
	}
	k := generate(t, algo, 1, 4)

	// Missing primitive.
	bad2 := *k
	badTBs2 := make([]*TBProgram, len(k.TBs))
	copy(badTBs2, k.TBs)
	cp := *k.TBs[0]
	cp.Slots = cp.Slots[:len(cp.Slots)-1]
	badTBs2[0] = &cp
	bad2.TBs = badTBs2
	if err := Validate(&bad2); err == nil {
		t.Error("missing primitive should fail validation")
	}

	// Link predecessor tables: a self link-pred, and offsets that do
	// not form one row per task.
	rejects := func(name string, bad *Kernel, want string) {
		t.Helper()
		for _, f := range CheckStructure(bad) {
			if strings.Contains(f.Message, want) {
				return
			}
		}
		t.Errorf("%s: no finding mentions %q: %v", name, want, CheckStructure(bad))
	}
	preds := map[string]struct {
		corrupt func(c *dag.CSR)
		want    string
	}{
		"self link-pred": {func(c *dag.CSR) {
			c.Items = append([]ir.TaskID{0}, c.Items...)
			for i := 1; i < len(c.Off); i++ {
				c.Off[i]++
			}
		}, "invalid link predecessor 0"},
		"decreasing offset": {func(c *dag.CSR) { c.Off[1] = c.Off[2] + 1 }, "corrupt link predecessor table: row 1 ends"},
		"offset past items": {func(c *dag.CSR) { c.Off[len(c.Off)-1]++ }, "corrupt link predecessor table: rows end"},
		"missing row":       {func(c *dag.CSR) { c.Off = c.Off[:len(c.Off)-1] }, "corrupt link predecessor table"},
	}
	for name, tc := range preds {
		bad := *k
		bad.LinkPreds = dag.CSR{Off: slices.Clone(k.LinkPreds.Off), Items: slices.Clone(k.LinkPreds.Items)}
		tc.corrupt(&bad.LinkPreds)
		rejects(name, &bad, tc.want)
	}

	// Checks shared with the analyzer's structure pass, on the TB that
	// receives task 0: a slot on the wrong rank, an unknown task or
	// primitive kind, and an empty TB. The slots name their task, so
	// the wrong rank is a send slot in the receiver's TB.
	recvTB := k.RecvTB[0]
	slots := map[string]struct {
		corrupt func(tb *TBProgram)
		want    string
	}{
		"send slot in the receiver's TB": {func(tb *TBProgram) {
			for s := range tb.Slots {
				if tb.Slots[s].Task == 0 {
					tb.Slots[s].Kind = ir.PrimSend
				}
			}
		}, "holds primitive for rank"},
		"task out of range":      {func(tb *TBProgram) { tb.Slots[0].Task = ir.TaskID(len(k.Graph.Tasks)) }, "references unknown task"},
		"negative task":          {func(tb *TBProgram) { tb.Slots[0].Task = -1 }, "references unknown task -1"},
		"unknown primitive kind": {func(tb *TBProgram) { tb.Slots[0].Kind = 7 }, "unknown primitive kind 7"},
		"empty TB":               {func(tb *TBProgram) { tb.Slots = nil }, "has no slots"},
	}
	for name, tc := range slots {
		bad := *k
		bad.TBs = append([]*TBProgram(nil), k.TBs...)
		cp := *k.TBs[recvTB]
		cp.Slots = append([]ir.Primitive(nil), cp.Slots...)
		tc.corrupt(&cp)
		bad.TBs[recvTB] = &cp
		rejects(name, &bad, tc.want)
		if err := Validate(&bad); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New(2, 4, topo.A100())
	k := generate(t, algo, 2, 4)

	var buf bytes.Buffer
	if err := Save(k, tp, &buf); err != nil {
		t.Fatal(err)
	}
	k2, tp2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tp2.NRanks() != tp.NRanks() || tp2.Profile.Name != tp.Profile.Name {
		t.Error("topology changed through round trip")
	}
	if k2.NTBs() != k.NTBs() || k2.Mode != k.Mode || k2.MBBarrier != k.MBBarrier {
		t.Error("kernel shape changed through round trip")
	}
	for i, tb := range k.TBs {
		tb2 := k2.TBs[i]
		if tb2.Rank != tb.Rank || tb2.Order != tb.Order || len(tb2.Slots) != len(tb.Slots) {
			t.Fatalf("TB %d changed: %+v vs %+v", i, tb2, tb)
		}
		for j := range tb.Slots {
			if tb.Slots[j] != tb2.Slots[j] {
				t.Fatalf("TB %d slot %d changed: %v vs %v", i, j, tb2.Slots[j], tb.Slots[j])
			}
		}
	}
	if !slices.Equal(k.LinkPreds.Off, k2.LinkPreds.Off) || !slices.Equal(k.LinkPreds.Items, k2.LinkPreds.Items) {
		t.Fatal("link preds changed through round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, _, err := Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("wrong version should fail")
	}
	if _, _, err := Load(strings.NewReader(`{"version": 1, "topology": {"nNodes": 0}}`)); err == nil {
		t.Error("invalid topology should fail")
	}

	// The simulator and runtime index TBs by the IDs in the task tables,
	// so a plan whose TB IDs are not their indices must not load, even
	// when the tables agree with the IDs.
	algo, err := expert.RingAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := Save(generate(t, algo, 1, 4), topo.New(1, 4, topo.A100()), &saved); err != nil {
		t.Fatal(err)
	}
	edits := []struct {
		name string
		edit func(pf *planFile)
	}{
		{"last TB renumbered past the end", func(pf *planFile) {
			last := len(pf.TBs) - 1
			for t := range pf.SendTB {
				if pf.SendTB[t] == last {
					pf.SendTB[t] = 1000
				}
				if pf.RecvTB[t] == last {
					pf.RecvTB[t] = 1000
				}
			}
			pf.TBs[last].ID = 1000
		}},
		{"first two TB entries swapped", func(pf *planFile) {
			pf.TBs[0], pf.TBs[1] = pf.TBs[1], pf.TBs[0]
		}},
		{"slot task out of range", func(pf *planFile) {
			pf.TBs[0].Slots[0].Task = len(pf.SendTB)
		}},
		{"send slot in the receiver's TB", func(pf *planFile) {
			recv := pf.RecvTB[0]
			for s, sl := range pf.TBs[recv].Slots {
				if sl.Task == 0 {
					pf.TBs[recv].Slots[s].Kind = int(ir.PrimSend)
				}
			}
		}},
		{"link predecessor rows past the task count", func(pf *planFile) {
			pf.LinkPreds = append(pf.LinkPreds, []int{})
		}},
		// Fabric fields come from outside the program: Load must
		// return an error, not let the topology constructors panic.
		{"zero spine count", func(pf *planFile) {
			pf.Topology.Fabric, pf.Topology.Spines = "clos", 0
		}},
		{"rail fabric with fewer NICs than GPUs", func(pf *planFile) {
			pf.Topology.Fabric, pf.Topology.Spines = "rail", 2
		}},
		{"unknown fabric", func(pf *planFile) {
			pf.Topology.Fabric, pf.Topology.Spines = "torus", 2
		}},
		// An undefined mode or loop order would otherwise run as some
		// defined one under a name that says otherwise.
		{"undefined execution mode", func(pf *planFile) {
			pf.Mode = 2
		}},
		{"undefined micro-batch order", func(pf *planFile) {
			pf.TBs[0].Order = 2
		}},
	}
	for _, e := range edits {
		var pf planFile
		if err := json.Unmarshal(saved.Bytes(), &pf); err != nil {
			t.Fatal(err)
		}
		e.edit(&pf)
		data, err := json.Marshal(pf)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: plan loaded, want an error", e.name)
		}
	}
}

// LinkPreds rows share one exact-size backing array; appending to one
// must not reach the next.
func TestLinkPredsCapped(t *testing.T) {
	algo, err := expert.RingAllGather(8)
	if err != nil {
		t.Fatal(err)
	}
	k := generate(t, algo, 1, 8)
	rows := 0
	for i := 0; i+1 < k.LinkPreds.Len(); i++ {
		if len(k.LinkPreds.Row(i)) == 0 || len(k.LinkPreds.Row(i+1)) == 0 {
			continue
		}
		rows++
		next := append([]ir.TaskID(nil), k.LinkPreds.Row(i+1)...)
		_ = append(k.LinkPreds.Row(i), -1)
		for j, p := range k.LinkPreds.Row(i + 1) {
			if p != next[j] {
				t.Fatalf("appending to LinkPreds[%d] changed LinkPreds[%d]", i, i+1)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no adjacent link-predecessor rows to check")
	}
}

// The compile pipeline reads one flat task layout in place, so its
// allocation count does not grow with per-task maps or slices: dag,
// HPDS, TB allocation and lowering of a 512-rank plan stay under a
// fixed number of allocations per task.
func TestCompileAllocsPerTask(t *testing.T) {
	const maxPerTask = 2.0
	algo, err := synth.HierAllReduce(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	var nTasks int
	allocs := testing.AllocsPerRun(3, func() {
		g, err := dag.Build(algo, tp)
		if err != nil {
			t.Fatal(err)
		}
		p, err := sched.Schedule(g, sched.PolicyHPDS)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Generate(p, talloc.StateBased(p, talloc.EstimateWindows(p, 1<<20, 8))); err != nil {
			t.Fatal(err)
		}
		nTasks = g.NTasks()
	})
	perTask := allocs / float64(nTasks)
	t.Logf("%.0f allocations for %d tasks (%.3f per task)", allocs, nTasks, perTask)
	if perTask > maxPerTask {
		t.Fatalf("%.3f allocations per task, want at most %.1f", perTask, maxPerTask)
	}
}
