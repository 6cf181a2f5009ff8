package talloc_test

import (
	"cmp"
	"slices"
	"testing"

	"github.com/resccl/resccl/internal/dag"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/sched"
	"github.com/resccl/resccl/internal/talloc"
	"github.com/resccl/resccl/internal/topo"
)

// ConnectionBased gives every part one send and one recv TB per
// connection its tasks use, in (part, Src, Dst, Side) order, and
// Generate starts each TB's label with its part's prefix. The cases are
// the whole ring as one part, and the ring's chunks split by parity
// around an empty part, which gives no TBs.
func TestConnectionBasedOneTBPerEndpoint(t *testing.T) {
	algo, err := expert.RingAllGather(8)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(algo, topo.New(1, 8, topo.A100()))
	if err != nil {
		t.Fatal(err)
	}
	p := sched.TaskIDOrder(g)
	var even, odd []ir.TaskID
	for _, task := range p.Order {
		if g.Tasks[task].Chunk%2 == 0 {
			even = append(even, task)
		} else {
			odd = append(odd, task)
		}
	}
	for _, c := range []struct {
		name  string
		parts []talloc.Part
		ntbs  int
	}{
		// Ring: 8 connections × 2 sides = 16 TBs.
		{"one part", []talloc.Part{{Tasks: p.Order}}, 16},
		{"two parts around an empty one", []talloc.Part{{Prefix: "even/", Tasks: even}, {Prefix: "none/"}, {Prefix: "odd/", Tasks: odd}}, 32},
	} {
		a := talloc.ConnectionBased(g, c.parts)
		if err := talloc.Validate(g, a); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.NTBs() != c.ntbs {
			t.Errorf("%s: NTBs = %d, want %d", c.name, a.NTBs(), c.ntbs)
		}
		var want []string
		for _, part := range c.parts {
			var conns []topo.Connection
			for _, task := range part.Tasks {
				conn := topo.Connection{Src: g.Tasks[task].Src, Dst: g.Tasks[task].Dst}
				if !slices.Contains(conns, conn) {
					conns = append(conns, conn)
				}
			}
			slices.SortFunc(conns, func(x, y topo.Connection) int {
				return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst))
			})
			for _, conn := range conns {
				want = append(want, part.Prefix+conn.String()+"/send", part.Prefix+conn.String()+"/recv")
			}
		}
		for _, tb := range a.TBs {
			if len(tb.Endpoints) != 1 {
				t.Errorf("%s: connection-based TB %d serves %d endpoints, want 1", c.name, tb.ID, len(tb.Endpoints))
			}
		}
		k, err := kernel.Generate(p, a)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		for _, tb := range k.TBs {
			got = append(got, tb.Label)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: TB labels\n%q\nwant\n%q", c.name, got, want)
		}
	}

	// A task left out of every part has no TB on either side.
	a := talloc.ConnectionBased(g, []talloc.Part{{Tasks: even}})
	if a.SendTB[odd[0]] != -1 || a.RecvTB[odd[0]] != -1 {
		t.Errorf("left-out task %d has TBs (%d, %d), want (-1, -1)", odd[0], a.SendTB[odd[0]], a.RecvTB[odd[0]])
	}
	if err := talloc.Validate(g, a); err == nil {
		t.Error("Validate accepted an assignment that leaves tasks out")
	}
}
