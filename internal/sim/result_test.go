package sim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// registryRuns compiles every registry algorithm that builds on tp with
// each backend and returns one single-session config per (algorithm,
// backend, size), named "<algorithm>/<backend>/<bytes>".
func registryRuns(t *testing.T, tp *topo.Topology, sizes []int64) ([]string, []MultiConfig) {
	t.Helper()
	var names []string
	var cfgs []MultiConfig
	for _, b := range expert.Registry() {
		params := []int{tp.NRanks()}
		if b.NParams == 2 {
			params = []int{tp.NNodes, tp.GPUsPerNode}
		}
		algo, err := b.Build(params...)
		if err != nil {
			continue // the builder refuses this shape
		}
		for _, be := range []backend.Backend{backend.NewResCCL(), backend.NewNCCL(), backend.NewMSCCL()} {
			k := compileWith(t, be, algo, tp, ir.ProtoAuto)
			for _, bytes := range sizes {
				names = append(names, fmt.Sprintf("%s/%s/%d", b.Name, be.Name(), bytes))
				cfgs = append(cfgs, MultiConfig{Topo: tp, Sessions: []Session{{Kernel: k, BufferBytes: bytes, ChunkBytes: 1 << 20}}})
			}
		}
	}
	return names, cfgs
}

// TestMeanLinkUtilizationPinned holds MeanLinkUtilization to the bits
// it reported when LinkBusy was a map summed in sorted link order, for
// every registry plan that builds on 1×8, 2×8 and 4×4 under each
// backend, and checks that it allocates nothing. Regenerate with
//
//	go test ./internal/sim -run TestMeanLinkUtilizationPinned -update
func TestMeanLinkUtilizationPinned(t *testing.T) {
	var b bytes.Buffer
	var results []*Result
	for _, shape := range [][2]int{{1, 8}, {2, 8}, {4, 4}} {
		tp := topo.New(shape[0], shape[1], topo.A100())
		names, cfgs := registryRuns(t, tp, []int64{256 << 10, 16 << 20})
		for i, cfg := range cfgs {
			se := cfg.Sessions[0]
			res, err := Run(Config{Topo: tp, Kernel: se.Kernel, BufferBytes: se.BufferBytes, ChunkBytes: se.ChunkBytes})
			if err != nil {
				t.Fatalf("%s: %v", names[i], err)
			}
			u := res.MeanLinkUtilization()
			fmt.Fprintf(&b, "%dx%d/%s %016x %g\n", shape[0], shape[1], names[i], math.Float64bits(u), u)
			results = append(results, res)
		}
	}
	path := filepath.Join("testdata", "link_utilization.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("MeanLinkUtilization drifted from %s", path)
	}
	if raceEnabled {
		return
	}
	for _, res := range results {
		if allocs := testing.AllocsPerRun(10, func() { res.MeanLinkUtilization() }); allocs != 0 {
			t.Fatalf("MeanLinkUtilization allocates %.1f times, want 0", allocs)
		}
	}
}

// TestConcurrentCompletionIsLastSession: a concurrent run's Completion
// is when its last session finished — not the time of the last event
// the simulator drained, which may be a stale rate reschedule — while
// the event count stays the whole drain's. A one-session run must agree
// with sim.Run on both.
func TestConcurrentCompletionIsLastSession(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	names, cfgs := registryRuns(t, tp, []int64{64 << 10, 4 << 20, 64 << 20})
	for i, cfg := range cfgs {
		mr, err := RunConcurrent(cfg)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		se := cfg.Sessions[0]
		alone, err := Run(Config{Topo: tp, Kernel: se.Kernel, BufferBytes: se.BufferBytes, ChunkBytes: se.ChunkBytes})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		if mr.Completion != alone.Completion || mr.Sessions[0].Completion != alone.Completion {
			t.Errorf("%s: concurrent completion %g (session %g), lone run %g",
				names[i], mr.Completion, mr.Sessions[0].Completion, alone.Completion)
		}
		if mr.Events != alone.Events {
			t.Errorf("%s: concurrent run drained %d events, lone run %d", names[i], mr.Events, alone.Events)
		}
	}

	hm, err := expert.HMAllReduce(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	k := compileWith(t, backend.NewResCCL(), hm, tp, ir.ProtoAuto)
	mr, err := RunConcurrent(MultiConfig{Topo: tp, Sessions: []Session{
		{Kernel: k, BufferBytes: 1 << 20, ChunkBytes: 1 << 20},
		{Kernel: k, BufferBytes: 64 << 20, ChunkBytes: 1 << 20},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if last := max(mr.Sessions[0].Completion, mr.Sessions[1].Completion); mr.Completion != last {
		t.Errorf("two sessions: completion %g, last session finished at %g", mr.Completion, last)
	}
}
