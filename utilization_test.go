package resccl

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestUtilizationGolden pins every field of the utilization report,
// per-TB reports included, for one call per entry of the committed
// dispatch table (each entry's probe size). Regenerate with
//
//	go test -run TestUtilizationGolden -update .
func TestUtilizationGolden(t *testing.T) {
	c := goldenCommunicator(t)
	var b bytes.Buffer
	for _, e := range c.def.dispatch.Entries {
		op, err := ir.ParseOpType(e.Op)
		if err != nil {
			t.Fatal(err)
		}
		run, err := c.runOp(op, e.ProbeBytes, nil)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s %d %s/%s\n", e.Op, e.ProbeBytes, run.Algorithm(), run.Protocol)
		writeUtilization(&b, run.Utilization())
	}
	path := filepath.Join("testdata", "utilization.golden")
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
		t.Fatalf("utilization reports drifted from %s (regenerate with -update if intended)", path)
	}
}

// writeUtilization renders every field of u, floats in their shortest
// exact form.
func writeUtilization(b *bytes.Buffer, u *trace.Utilization) {
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	fmt.Fprintf(b, "backend=%s algorithm=%s tbs=%d total=%d comm=%s avgIdle=%s maxIdle=%s reports=%d\n",
		u.Backend, u.Algorithm, u.TBs, u.TotalTBs, g(u.CommTime), g(u.AvgIdle), g(u.MaxIdle), len(u.Reports))
	b.WriteString("id rank label occupancy exec sync idle saving\n")
	for _, r := range u.Reports {
		fmt.Fprintf(b, "%d %d %s %s %s %s %s %s\n",
			r.ID, r.Rank, r.Label, g(r.Occupancy), g(r.Exec), g(r.Sync), g(r.Idle), g(r.Saving))
	}
}

// TestUtilizationConcurrentFirstCall: goroutines racing to read one
// Run's report all get the same report.
func TestUtilizationConcurrentFirstCall(t *testing.T) {
	c := goldenCommunicator(t)
	run, err := c.AllReduce(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*trace.Utilization, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = run.Utilization()
		}(g)
	}
	wg.Wait()
	for g, u := range got {
		if u == nil || u != got[0] {
			t.Fatalf("goroutine %d got report %p, goroutine 0 got %p", g, u, got[0])
		}
	}
	if run.Utilization() != got[0] {
		t.Fatal("a later call returned a different report")
	}
}

// TestConcurrentLinkUtilizationIsAFraction: under RunConcurrently the
// sessions share the fabric's busy time, so each session's link
// utilization divides it by the span it covers, not by that session's
// own (shorter) completion, and stays a fraction.
func TestConcurrentLinkUtilizationIsAFraction(t *testing.T) {
	c, err := NewCommunicator(NewTopology(2, 8, A100()))
	if err != nil {
		t.Fatal(err)
	}
	algo, err := BuildAlgorithm("ring-allreduce", 16)
	if err != nil {
		t.Fatal(err)
	}
	runs, err := c.RunConcurrently([]*Algorithm{algo, algo}, []int64{1 << 20, 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if u := run.LinkUtilization(); !(u > 0 && u <= 1) {
			t.Errorf("session %d: link utilization %g, want a fraction in (0, 1]", i, u)
		}
	}
	if runs[0].Completion >= runs[1].Completion {
		t.Fatalf("the short session (%v) did not finish before the long one (%v)", runs[0].Completion, runs[1].Completion)
	}
}
