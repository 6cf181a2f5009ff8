package fault

import (
	"reflect"
	"testing"

	"github.com/resccl/resccl/internal/topo"
)

func TestGenerateDeterministic(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	p := Params{Seed: 42, N: 32, Horizon: 0.01, NTBs: 12}
	a := Generate(tp, p)
	b := Generate(tp, p)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same params produced different schedules")
	}
	if len(a.Events) != p.N {
		t.Fatalf("got %d events, want %d", len(a.Events), p.N)
	}
	if err := a.Validate(tp, p.NTBs); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c := Generate(tp, Params{Seed: 43, N: 32, Horizon: 0.01, NTBs: 12})
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatalf("different seeds produced identical schedules")
	}
}

func TestGenerateMix(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	s := Generate(tp, Params{Seed: 1, N: 200, Horizon: 0.01, NTBs: 8})
	counts := map[Kind]int{}
	for _, e := range s.Events {
		counts[e.Kind]++
		if err := e.Validate(tp, 8); err != nil {
			t.Fatalf("event invalid: %v", err)
		}
	}
	for _, k := range []Kind{KindLinkDegrade, KindLinkDown, KindNICFlap, KindStraggler} {
		if counts[k] == 0 {
			t.Fatalf("200-event schedule produced no %v events: %v", k, counts)
		}
	}
}

func TestGenerateSingleNodeNoFlaps(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	s := Generate(tp, Params{Seed: 5, N: 100, Horizon: 0.01})
	for _, e := range s.Events {
		if e.Kind == KindNICFlap {
			t.Fatalf("single-node schedule contains a NIC flap")
		}
		if e.Kind == KindStraggler {
			t.Fatalf("NTBs=0 schedule contains a straggler")
		}
	}
	if err := s.Validate(tp, 0); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	tp := topo.New(1, 2, topo.A100())
	bad := []Event{
		{Kind: KindLinkDown, Start: -1, Duration: 1, Resources: []topo.ResourceID{0}},
		{Kind: KindLinkDown, Start: 0, Duration: 0, Resources: []topo.ResourceID{0}},
		{Kind: KindLinkDown, Start: 0, Duration: 1},
		{Kind: KindLinkDown, Start: 0, Duration: 1, Resources: []topo.ResourceID{topo.ResourceID(tp.NResources())}},
		{Kind: KindLinkDegrade, Start: 0, Duration: 1, Resources: []topo.ResourceID{0}, Factor: 1.5},
		{Kind: KindStraggler, Start: 0, Duration: 1, TB: 0, Factor: 0.5},
		{Kind: KindStraggler, Start: 0, Duration: 1, TB: 9, Factor: 2},
		{Kind: Kind(99), Start: 0, Duration: 1},
	}
	for i, e := range bad {
		if err := e.Validate(tp, 4); err == nil {
			t.Errorf("event %d (%+v) unexpectedly valid", i, e)
		}
	}
	s := &Schedule{Events: bad[:1]}
	if err := s.Validate(tp, 4); err == nil {
		t.Fatalf("schedule with bad event validated")
	}
}

func TestEmptyAndSortedNilSafe(t *testing.T) {
	var s *Schedule
	if !s.Empty() {
		t.Fatal("nil schedule not Empty")
	}
	if s.Sorted() != nil {
		t.Fatal("nil schedule Sorted not nil")
	}
	if err := s.Validate(nil, 0); err != nil {
		t.Fatal(err)
	}
	s2 := &Schedule{}
	if !s2.Empty() {
		t.Fatal("zero schedule not Empty")
	}
}

func TestSortedOrder(t *testing.T) {
	s := &Schedule{Events: []Event{
		LinkDown(0, 0.5, 0.1),
		LinkDown(0, 0.1, 0.3),
		LinkDegrade(1, 0.1, 0.1, 0.5),
	}}
	out := s.Sorted()
	for i := 1; i < len(out); i++ {
		if out[i].Start < out[i-1].Start {
			t.Fatalf("Sorted out of order: %+v", out)
		}
	}
	// Sorted must not mutate the original.
	if s.Events[0].Start != 0.5 {
		t.Fatalf("Sorted mutated the schedule")
	}
}

func TestConstructors(t *testing.T) {
	tp := topo.New(2, 2, topo.A100())
	if e := LinkDown(3, 0.1, 0.2); e.Kind != KindLinkDown || e.End() != e.Start+e.Duration {
		t.Fatalf("LinkDown: %+v", e)
	}
	e := NICFlap(tp, 1, 0, 1e-3)
	if len(e.Resources) != 2 {
		t.Fatalf("NICFlap should cover both queues: %+v", e)
	}
	eg, in := tp.NICResources(1)
	if e.Resources[0] != eg || e.Resources[1] != in {
		t.Fatalf("NICFlap resources mismatch: %+v vs (%d,%d)", e, eg, in)
	}
	st := Straggler(2, 0, 1e-3, 3)
	if err := st.Validate(tp, 4); err != nil {
		t.Fatal(err)
	}
	if d := st.Describe(tp); d == "" {
		t.Fatal("empty Describe")
	}
}
