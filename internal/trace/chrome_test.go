package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/resccl/resccl/internal/core"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

var update = flag.Bool("update", false, "rewrite golden files")

// meshRun compiles a 4-GPU mesh AllReduce and simulates it with the
// timeline recorder on. Everything is deterministic: fixed algorithm,
// fixed topology, fixed buffer.
func meshRun(t *testing.T) (*obs.Timeline, *core.Compiled, *topo.Topology, *sim.Result) {
	t.Helper()
	algo, err := expert.MeshAllReduce(4)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New(1, 4, topo.A100())
	c, err := core.Compile(context.Background(), algo, tp, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Topo: tp, Kernel: c.Kernel, BufferBytes: 8 << 20, ChunkBytes: 1 << 20,
		RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := BuildTimeline("resccl/mesh-allreduce", c.Kernel, tp, res)
	if tl == nil {
		t.Fatal("BuildTimeline returned nil for a recorded run")
	}
	return tl, c, tp, res
}

func TestBuildTimelineTracks(t *testing.T) {
	tl, c, _, res := meshRun(t)
	if len(tl.TBs) != len(c.Kernel.TBs) {
		t.Errorf("TB tracks = %d, want one per thread block (%d)", len(tl.TBs), len(c.Kernel.TBs))
	}
	if len(tl.Links) == 0 {
		t.Error("no link tracks")
	}
	if tl.Completion != res.Completion {
		t.Errorf("completion = %v, want %v", tl.Completion, res.Completion)
	}
	var slices int
	for _, tb := range tl.TBs {
		slices += len(tb.Slices)
	}
	if slices == 0 {
		t.Error("no TB slices recorded")
	}
}

func TestBuildTimelineNilResult(t *testing.T) {
	if tl := BuildTimeline("x", nil, nil, nil); tl != nil {
		t.Error("nil result should yield nil timeline")
	}
	if tl := BuildTimeline("x", nil, nil, &sim.Result{}); tl != nil {
		t.Error("empty timeline should yield nil")
	}
}

// TestChromeGolden renders the deterministic mesh run against a checked
// in golden file. Run with -update to regenerate after intentional
// format changes.
func TestChromeGolden(t *testing.T) {
	tl, _, _, _ := meshRun(t)
	tr := obs.NewTrace()
	tr.AddTimeline(tl)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace output is not valid JSON")
	}

	golden := filepath.Join("testdata", "mesh_allreduce_4.trace.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./internal/trace -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from golden file %s (len %d vs %d); regenerate with -update if the change is intentional",
			golden, buf.Len(), len(want))
	}
}

// TestChromeDeterministic renders the same run twice and demands
// byte-identical output — the contract -trace-out relies on.
func TestChromeDeterministic(t *testing.T) {
	render := func() []byte {
		tl, _, _, _ := meshRun(t)
		tr := obs.NewTrace()
		tr.AddTimeline(tl)
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Error("two identical runs produced different trace bytes")
	}
}

func TestLinkBusyGauges(t *testing.T) {
	_, _, tp, res := meshRun(t)
	m := obs.NewMetrics()
	LinkBusyGauges(m, tp, res.LinkBusy)
	snap := m.Snapshot()
	busy := 0
	for _, sec := range res.LinkBusy {
		if sec > 0 {
			busy++
		}
	}
	if busy == 0 || len(snap.Gauges) != busy {
		t.Errorf("gauges = %d, want one per busy link (%d)", len(snap.Gauges), busy)
	}
	for name := range snap.Gauges {
		if len(name) < len("link.busy_seconds.") || name[:len("link.busy_seconds.")] != "link.busy_seconds." {
			t.Errorf("gauge %q lacks link.busy_seconds. prefix", name)
		}
	}
	// Nil-safety.
	LinkBusyGauges(nil, tp, res.LinkBusy)
	LinkBusyGauges(m, nil, res.LinkBusy)
}
