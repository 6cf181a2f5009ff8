package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// The run-state arena is reused across runs; these tests hold every
// run to the result a fresh arena computes, in any order and under
// concurrency, and check that no Result aliases reused memory.

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// arenaCase is one simulation of the corpus.
type arenaCase struct {
	name string
	cfg  MultiConfig
}

// run simulates the case through the public entry points: Run (which
// returns the session's *Result) for one session, RunConcurrent (a
// *MultiResult) otherwise.
func (c arenaCase) run() (any, error) {
	if len(c.cfg.Sessions) > 1 {
		return RunConcurrent(c.cfg)
	}
	se := c.cfg.Sessions[0]
	return Run(Config{Topo: c.cfg.Topo, Kernel: se.Kernel, BufferBytes: se.BufferBytes,
		ChunkBytes: se.ChunkBytes, Faults: c.cfg.Faults,
		RecordTimeline: c.cfg.RecordTimeline, FullResolve: c.cfg.FullResolve})
}

// fresh simulates the case on a newly allocated arena — the reference —
// and returns what run returns.
func (c arenaCase) fresh() (any, error) {
	s := new(sim)
	if err := s.simulate(c.cfg, c.cfg.Sessions); err != nil {
		return nil, err
	}
	if len(c.cfg.Sessions) > 1 {
		return s.multiResult(), nil
	}
	return s.sessionResult(0, s.linkBusy()), nil
}

func compileWith(t testing.TB, b backend.Backend, algo *ir.Algorithm, tp *topo.Topology, proto ir.Protocol) *kernel.Kernel {
	t.Helper()
	plan, err := b.Compile(context.Background(), backend.Request{Algo: algo, Topo: tp, Protocol: proto})
	if err != nil {
		t.Fatalf("compile %s on %s: %v", algo.Name, tp, err)
	}
	return plan.Kernel
}

// arenaCorpus covers every registry algorithm that builds on 1×8, 2×8
// and 4×4 at two sizes, the baseline backends, a protocol tier,
// multi-session runs, faults, congestion, timelines and the eager
// reference solver.
func arenaCorpus(t testing.TB) []arenaCase {
	t.Helper()
	var cases []arenaCase
	one := func(tp *topo.Topology, k *kernel.Kernel, bytes int64) MultiConfig {
		return MultiConfig{Topo: tp, Sessions: []Session{{Kernel: k, BufferBytes: bytes, ChunkBytes: 1 << 20}}}
	}
	sizes := []int64{256 << 10, 16 << 20}
	for _, shape := range [][2]int{{1, 8}, {2, 8}, {4, 4}} {
		tp := topo.New(shape[0], shape[1], topo.A100())
		for _, b := range expert.Registry() {
			params := []int{tp.NRanks()}
			if b.NParams == 2 {
				params = []int{shape[0], shape[1]}
			}
			algo, err := b.Build(params...)
			if err != nil {
				continue // the builder refuses this shape
			}
			k := compileWith(t, backend.NewResCCL(), algo, tp, ir.ProtoAuto)
			for _, bytes := range sizes {
				name := fmt.Sprintf("%s/%dx%d/%d", b.Name, shape[0], shape[1], bytes)
				cases = append(cases, arenaCase{name, one(tp, k, bytes)})
			}
		}
	}

	tp := topo.New(2, 8, topo.A100())
	hm, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := expert.HMAllGather(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	res := compileWith(t, backend.NewResCCL(), hm, tp, ir.ProtoAuto)
	cases = append(cases,
		arenaCase{"nccl", one(tp, compileWith(t, backend.NewNCCL(), hm, tp, ir.ProtoAuto), 8<<20)},
		arenaCase{"msccl", one(tp, compileWith(t, backend.NewMSCCL(), hm, tp, ir.ProtoAuto), 8<<20)},
		arenaCase{"ll", one(tp, compileWith(t, backend.NewResCCL(), hm, tp, ir.ProtoLL), 1<<20)},
	)
	agK := compileWith(t, backend.NewResCCL(), ag, tp, ir.ProtoAuto)
	cases = append(cases, arenaCase{"multi-session", MultiConfig{Topo: tp, Sessions: []Session{
		{Kernel: res, BufferBytes: 32 << 20, ChunkBytes: 1 << 20},
		{Kernel: agK, BufferBytes: 8 << 20, ChunkBytes: 1 << 20},
		{Kernel: res, BufferBytes: 4 << 20, ChunkBytes: 512 << 10},
	}}})

	clean, err := Run(Config{Topo: tp, Kernel: res, BufferBytes: 64 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sched := fault.Generate(tp, fault.Params{Seed: 7, N: 10, Horizon: clean.Completion,
		MeanDuration: clean.Completion / 6, NTBs: len(res.TBs)})
	faulted := one(tp, res, 64<<20)
	faulted.Faults = sched
	faulted.RecordTimeline = true
	cases = append(cases, arenaCase{"faults+timeline", faulted})

	multiFault := MultiConfig{Topo: tp, Faults: fault.Generate(tp, fault.Params{Seed: 11, N: 6,
		Horizon: clean.Completion, MeanDuration: clean.Completion / 4, NTBs: len(res.TBs) + len(agK.TBs)}),
		Sessions: []Session{{Kernel: res, BufferBytes: 32 << 20, ChunkBytes: 1 << 20},
			{Kernel: agK, BufferBytes: 32 << 20, ChunkBytes: 1 << 20}}}
	cases = append(cases, arenaCase{"multi-session+faults", multiFault})

	var loaded []topo.ResourceID
	for l, busy := range clean.LinkBusy {
		if busy > 0 && l%3 == 0 {
			loaded = append(loaded, topo.ResourceID(l))
		}
	}
	congested := one(tp, res, 64<<20)
	congested.Faults = &fault.Schedule{Events: []fault.Event{background(0.4, loaded...)}}
	cases = append(cases, arenaCase{"congestion", congested})

	eager := one(tp, res, 16<<20)
	eager.FullResolve = true
	cases = append(cases, arenaCase{"full-resolve", eager})

	tp44 := topo.New(4, 4, topo.A100())
	hm44, err := expert.HMAllReduce(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	timeline := one(tp44, compileWith(t, backend.NewResCCL(), hm44, tp44, ir.ProtoAuto), 16<<20)
	timeline.RecordTimeline = true
	cases = append(cases, arenaCase{"timeline-4x4", timeline})
	return cases
}

// canon renders a value with every float as its bit pattern and every
// map in sorted key order, so equal strings mean bit-identical values.
func canon(v any) string {
	var b strings.Builder
	canonValue(&b, reflect.ValueOf(v))
	return b.String()
}

func canonValue(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%016x", math.Float64bits(v.Float()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		canonValue(b, v.Elem())
	case reflect.Struct:
		b.WriteByte('{')
		for i := 0; i < v.NumField(); i++ {
			b.WriteString(v.Type().Field(i).Name)
			b.WriteByte(':')
			canonValue(b, v.Field(i))
			b.WriteByte(' ')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			b.WriteString("nil")
			return
		}
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			canonValue(b, v.Index(i))
			b.WriteByte(' ')
		}
		b.WriteByte(']')
	case reflect.Map:
		if v.IsNil() {
			b.WriteString("nil")
			return
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		b.WriteString("map[")
		for _, k := range keys {
			fmt.Fprintf(b, "%d:", k.Int())
			canonValue(b, v.MapIndex(k))
			b.WriteByte(' ')
		}
		b.WriteByte(']')
	default:
		fmt.Fprintf(b, "%v", v.Interface())
	}
}

// TestArenaReuseMatchesFresh interleaves the corpus through the pooled
// arena forwards, backwards and from two goroutines at once; every
// result must equal a fresh arena's, bit for bit.
func TestArenaReuseMatchesFresh(t *testing.T) {
	cases := arenaCorpus(t)
	want := make([]any, len(cases))
	for i, c := range cases {
		r, err := c.fresh()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = r
	}
	check := func(order string, i int) error {
		got, err := cases[i].run()
		if err != nil {
			return fmt.Errorf("%s %s: %v", order, cases[i].name, err)
		}
		if !reflect.DeepEqual(got, want[i]) || canon(got) != canon(want[i]) {
			return fmt.Errorf("%s %s: pooled arena diverges from a fresh one", order, cases[i].name)
		}
		return nil
	}
	for i := range cases {
		if err := check("forward", i); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(cases) - 1; i >= 0; i-- {
		if err := check("reverse", i); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range cases {
				i := j
				if g == 1 {
					i = len(cases) - 1 - j
				}
				if err := check("concurrent", i); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestResultOwnsItsMemory scribbles over every slice and map of a
// returned Result; a later run of the same case must be unaffected.
func TestResultOwnsItsMemory(t *testing.T) {
	for _, c := range arenaCorpus(t) {
		if c.name != "faults+timeline" && c.name != "multi-session" {
			continue
		}
		first, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		want := canon(first)
		var results []*Result
		switch r := first.(type) {
		case *Result:
			results = []*Result{r}
		case *MultiResult:
			results = r.Sessions
		}
		for _, r := range results {
			for i := range r.TBs {
				for j := range r.TBs[i].Segments {
					r.TBs[i].Segments[j] = [2]float64{-1, -1}
				}
				r.TBs[i] = TBStats{Release: -1, Exec: -1, Segments: r.TBs[i].Segments}
			}
			for i := range r.Timeline {
				r.Timeline[i] = InstanceSpan{Task: -1, Start: -1, Links: r.Timeline[i].Links}
			}
			for i := range r.Faults {
				r.Faults[i] = FaultEvent{Kind: "scribbled"}
			}
			for l := range r.LinkBusy {
				r.LinkBusy[l] = -1
			}
		}
		again, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if canon(again) != want {
			t.Fatalf("%s: mutating a returned Result changed a later run", c.name)
		}
	}
}

// TestRunRejectsTBIDMismatch: a kernel whose TB IDs are not their
// indices is refused with a typed error, not simulated.
func TestRunRejectsTBIDMismatch(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	plan := compileAR(t, tp, 2, 4)
	k := *plan.Kernel
	k.TBs = append([]*kernel.TBProgram(nil), plan.Kernel.TBs...)
	k.TBs[0], k.TBs[1] = k.TBs[1], k.TBs[0]
	_, err := Run(Config{Topo: tp, Kernel: &k, BufferBytes: 1 << 20, ChunkBytes: 1 << 20})
	var idErr *TBIDError
	if !errors.As(err, &idErr) || idErr.Index != 0 || idErr.ID != 1 {
		t.Fatalf("swapped TBs: err = %v, want a TBIDError for index 0", err)
	}
}

// TestWarmRunAllocatesOnlyResult bounds a warm 2×8 hm-allreduce run's
// allocations to its result: the Result, its TBs slice and its LinkBusy
// slice. Measured: 3.
func TestWarmRunAllocatesOnlyResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	tp := topo.New(2, 8, topo.A100())
	k := compileAR(t, tp, 2, 8).Kernel
	cfg := Config{Topo: tp, Kernel: k, BufferBytes: 64 << 20, ChunkBytes: 1 << 20}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 3
	if allocs > bound {
		t.Fatalf("warm sim.Run allocates %.1f times, want ≤ %d", allocs, bound)
	}
}
