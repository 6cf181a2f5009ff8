package talloc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

func pipelineFor(t *testing.T, algo *ir.Algorithm, nNodes, gpn int) *sched.Pipeline {
	t.Helper()
	g, err := dag.Build(algo, topo.New(nNodes, gpn, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.Schedule(g, sched.PolicyHPDS)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWindowsMonotone(t *testing.T) {
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := pipelineFor(t, algo, 2, 4)
	w := EstimateWindows(p, 1<<20, 8)
	for i, iv := range w.PerTask {
		if iv.End <= iv.Start {
			t.Fatalf("task %d: empty window [%g,%g]", i, iv.Start, iv.End)
		}
		if iv.End > w.Makespan+1e-12 {
			t.Fatalf("task %d window exceeds makespan", i)
		}
		if w.PerInst[i] <= 0 {
			t.Fatalf("task %d: nonpositive per-instance estimate", i)
		}
	}
	// Dependencies must be reflected: a task starts no earlier than any
	// dependency's start.
	g := p.Graph
	for t2 := range g.Tasks {
		for _, d := range g.Deps[t2] {
			if w.PerTask[t2].Start < w.PerTask[d].Start {
				t.Fatalf("task %d starts before its dependency %d", t2, d)
			}
		}
	}
}

func TestConnectionBasedOneTBPerEndpoint(t *testing.T) {
	algo, err := expert.RingAllGather(8)
	if err != nil {
		t.Fatal(err)
	}
	p := pipelineFor(t, algo, 1, 8)
	a := ConnectionBased(p)
	if err := Validate(p.Graph, a); err != nil {
		t.Fatal(err)
	}
	// Ring: 8 connections × 2 sides = 16 TBs.
	if a.NTBs() != 16 {
		t.Errorf("NTBs = %d, want 16", a.NTBs())
	}
	for _, tb := range a.TBs {
		if len(tb.Endpoints) != 1 {
			t.Errorf("connection-based TB %d serves %d endpoints, want 1", tb.ID, len(tb.Endpoints))
		}
	}
}

func TestStateBasedNeverWorse(t *testing.T) {
	builders := map[string]func() (*ir.Algorithm, error){
		"hm-ar":    func() (*ir.Algorithm, error) { return expert.HMAllReduce(2, 8) },
		"hm-ag":    func() (*ir.Algorithm, error) { return expert.HMAllGather(2, 8) },
		"taccl-ar": func() (*ir.Algorithm, error) { return synth.TACCLAllReduce(2, 8) },
		"taccl-ag": func() (*ir.Algorithm, error) { return synth.TACCLAllGather(2, 8) },
	}
	for name, build := range builders {
		algo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p := pipelineFor(t, algo, 2, 8)
		w := EstimateWindows(p, 1<<20, 8)
		conn := ConnectionBased(p)
		state := StateBased(p, w)
		if err := Validate(p.Graph, state); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if state.NTBs() > conn.NTBs() {
			t.Errorf("%s: state-based uses %d TBs, connection-based %d", name, state.NTBs(), conn.NTBs())
		}
	}
}

// State-based merging must never co-locate endpoints with overlapping
// activity on one TB.
func TestStateBasedNoOverlapWithinTB(t *testing.T) {
	algo, err := synth.TACCLAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := pipelineFor(t, algo, 2, 4)
	w := EstimateWindows(p, 1<<20, 8)
	a := StateBased(p, w)
	// Recompute per-endpoint intervals and check pairwise disjointness
	// within each TB.
	byEndpoint := map[Endpoint][]Interval{}
	for t2 := range p.Graph.Tasks {
		task := p.Graph.Tasks[t2]
		conn := topo.Connection{Src: task.Src, Dst: task.Dst}
		se := Endpoint{Conn: conn, Side: SideSend}
		re := Endpoint{Conn: conn, Side: SideRecv}
		byEndpoint[se] = append(byEndpoint[se], w.PerTask[t2])
		byEndpoint[re] = append(byEndpoint[re], w.PerTask[t2])
	}
	for _, tb := range a.TBs {
		for i := 0; i < len(tb.Endpoints); i++ {
			for j := i + 1; j < len(tb.Endpoints); j++ {
				a := mergeIntervals(append([]Interval(nil), byEndpoint[tb.Endpoints[i]]...))
				b := mergeIntervals(append([]Interval(nil), byEndpoint[tb.Endpoints[j]]...))
				if intervalsOverlap(a, b) {
					t.Fatalf("TB %d co-locates overlapping endpoints %v and %v",
						tb.ID, tb.Endpoints[i], tb.Endpoints[j])
				}
			}
		}
	}
}

func TestMergeIntervals(t *testing.T) {
	got := mergeIntervals([]Interval{{3, 5}, {1, 2}, {4, 7}, {9, 10}})
	want := []Interval{{1, 2}, {3, 7}, {9, 10}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestIntervalsOverlap(t *testing.T) {
	a := []Interval{{0, 1}, {5, 6}}
	b := []Interval{{1, 2}, {6, 8}}
	if intervalsOverlap(a, b) {
		t.Error("touching intervals must not count as overlapping")
	}
	c := []Interval{{0.5, 1.5}}
	if !intervalsOverlap(a, c) {
		t.Error("expected overlap")
	}
	if intervalsOverlap(nil, a) {
		t.Error("empty list never overlaps")
	}
}

// Property: merged intervals are sorted, non-overlapping and cover the
// inputs.
func TestPropertyMergeIntervals(t *testing.T) {
	f := func(starts []float64) bool {
		ivs := make([]Interval, 0, len(starts))
		for _, s := range starts {
			if s < 0 {
				s = -s
			}
			if s > 1e9 {
				continue
			}
			ivs = append(ivs, Interval{Start: s, End: s + 1})
		}
		merged := mergeIntervals(append([]Interval(nil), ivs...))
		for i := 1; i < len(merged); i++ {
			if merged[i].Start <= merged[i-1].End {
				return false
			}
		}
		// Every input point must fall inside some merged interval.
		for _, iv := range ivs {
			inside := false
			for _, m := range merged {
				if iv.Start >= m.Start && iv.End <= m.End {
					inside = true
					break
				}
			}
			if !inside {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointRank(t *testing.T) {
	c := topo.Connection{Src: 3, Dst: 7}
	if (Endpoint{Conn: c, Side: SideSend}).Rank() != 3 {
		t.Error("send endpoint lives on the source")
	}
	if (Endpoint{Conn: c, Side: SideRecv}).Rank() != 7 {
		t.Error("recv endpoint lives on the destination")
	}
}

// refTimeline is the §4.4 recurrence over materialized link
// predecessors, preds = g.WindowPreds(order).
func refTimeline(g *dag.Graph, order []ir.TaskID, preds [][]ir.TaskID, alphaFactor, wireChunk float64, nMB int) *Windows {
	w := &Windows{PerTask: make([]Interval, len(g.Tasks)), PerInst: make([]float64, len(g.Tasks))}
	for _, t := range order {
		path := g.Paths[t]
		per := path.Alpha.Seconds()*alphaFactor + wireChunk/path.TBCap
		w.PerInst[t] = per
		start, finish := 0.0, 0.0
		for _, d := range g.Deps[t] {
			if s := w.PerTask[d].Start + w.PerInst[d]; s > start {
				start = s
			}
			if f := w.PerTask[d].End + per; f > finish {
				finish = f
			}
		}
		for _, prev := range preds[t] {
			if e := w.PerTask[prev].End; e > start {
				start = e
			}
		}
		if f := start + float64(nMB)*per; f > finish {
			finish = f
		}
		w.PerTask[t] = Interval{Start: start, End: finish}
		if finish > w.Makespan {
			w.Makespan = finish
		}
	}
	return w
}

// Timeline finds each task's link-window predecessors as it walks the
// order; the result must equal the recurrence over the materialized
// g.WindowPreds(order), for the schedule's own order and for shuffled
// ones, whose predecessors differ.
func TestTimelineMatchesWindowPreds(t *testing.T) {
	builders := map[string]func() (*ir.Algorithm, error){
		"hm-ar":    func() (*ir.Algorithm, error) { return expert.HMAllReduce(2, 8) },
		"taccl-ag": func() (*ir.Algorithm, error) { return synth.TACCLAllGather(2, 8) },
		"hier-ar":  func() (*ir.Algorithm, error) { return synth.HierAllReduce(2, 8) },
	}
	rng := rand.New(rand.NewSource(1))
	for name, build := range builders {
		algo, err := build()
		if err != nil {
			t.Fatal(err)
		}
		p := pipelineFor(t, algo, 2, 8)
		g := p.Graph
		orders := [][]ir.TaskID{p.Order}
		for range 3 {
			o := slices.Clone(p.Order)
			rng.Shuffle(len(o), func(i, j int) { o[i], o[j] = o[j], o[i] })
			orders = append(orders, o)
		}
		for i, order := range orders {
			got := Timeline(g, order, 1.5, 1<<20, 8)
			want := refTimeline(g, order, g.WindowPreds(order), 1.5, 1<<20, 8)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s order %d: timeline differs from the one over WindowPreds", name, i)
			}
		}
		if got, want := EstimateWindows(p, 1<<20, 8), refTimeline(g, p.Order, p.LinkPreds, 1, 1<<20, 8); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: EstimateWindows differs from the recurrence over the schedule's link predecessors", name)
		}
	}
}
