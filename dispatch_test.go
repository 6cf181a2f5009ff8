package resccl_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/resccl/resccl"
)

// tableJSON renders a hand-authored dispatch table for tp.
func tableJSON(tp *resccl.Topology, entries string) []byte {
	return []byte(fmt.Sprintf(`{
  "version": 1,
  "topology": %q,
  "seed": 1,
  "entries": [%s]
}`, tp.String(), entries))
}

func TestLoadDispatchTableRoundTrip(t *testing.T) {
	tp := resccl.NewTopology(1, 4, resccl.A100())
	data := tableJSON(tp, `
    {"op": "Allreduce", "algorithm": "ring-allreduce", "protocol": "Simple", "probe_bytes": 1048576, "completion_us": 10}`)
	d, err := resccl.LoadDispatchTable(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := resccl.LoadDispatchTable(out)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := back.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, out2) {
		t.Error("marshal/load round trip not byte-stable")
	}
	if d.Hash() != back.Hash() {
		t.Error("hash changed across round trip")
	}
	if d.Topology() != tp.String() {
		t.Errorf("Topology() = %q, want %q", d.Topology(), tp.String())
	}
	if _, err := resccl.LoadDispatchTable([]byte(`{"version": 1}`)); err == nil {
		t.Error("empty table accepted")
	}
}

func TestDispatchTableTopologyMismatch(t *testing.T) {
	other := resccl.NewTopology(2, 8, resccl.A100())
	data := tableJSON(other, `
    {"op": "Allreduce", "algorithm": "hm-allreduce", "protocol": "Simple", "probe_bytes": 1048576, "completion_us": 10}`)
	d, err := resccl.LoadDispatchTable(data)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := resccl.NewCommunicator(resccl.NewTopology(1, 4, resccl.A100()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AllReduce(1<<20, resccl.WithDispatchTable(d)); !errors.Is(err, resccl.ErrDispatchTable) {
		t.Errorf("mismatched topology: got %v, want ErrDispatchTable", err)
	}
}

// A loaded table may name a sketch plan of another shape. The
// Communicator must refuse it from the name alone: building the
// 4096×4096 genome would take far longer than the bound.
func TestDispatchRefusesWrongShapeSketch(t *testing.T) {
	tp := resccl.NewTopology(2, 8, resccl.A100())
	d, err := resccl.LoadDispatchTable(tableJSON(tp, `
    {"op": "Allreduce", "algorithm": "synth:sketch/ar/4096x4096/im-er-s0-r0", "protocol": "Simple", "probe_bytes": 1048576, "completion_us": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	comm, err := resccl.NewCommunicator(tp)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = comm.AllReduce(1<<20, resccl.WithDispatchTable(d))
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("refusing the sketch took %v; it must not be built", elapsed)
	}
	if !errors.Is(err, resccl.ErrDispatchTable) {
		t.Errorf("wrong-shape sketch: got %v, want ErrDispatchTable", err)
	}
}

func TestDispatchPicksByOpAndSize(t *testing.T) {
	tp := resccl.NewTopology(1, 4, resccl.A100())
	data := tableJSON(tp, `
    {"op": "Allreduce", "max_bytes": 4194304, "algorithm": "ring-allreduce", "protocol": "LL", "probe_bytes": 1048576, "completion_us": 10},
    {"op": "Allreduce", "algorithm": "mesh-allreduce", "protocol": "Simple", "probe_bytes": 67108864, "completion_us": 100}`)
	d, err := resccl.LoadDispatchTable(data)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := resccl.NewCommunicator(tp, resccl.WithDispatchTable(d))
	if err != nil {
		t.Fatal(err)
	}
	small, err := comm.AllReduce(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if small.Algorithm() != "ring-allreduce" || small.Protocol != resccl.ProtoLL {
		t.Errorf("small call ran %s/%v, want ring-allreduce/LL", small.Algorithm(), small.Protocol)
	}
	large, err := comm.AllReduce(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if large.Algorithm() != "mesh-allreduce" || large.Protocol != resccl.ProtoSimple {
		t.Errorf("large call ran %s/%v, want mesh-allreduce/Simple", large.Algorithm(), large.Protocol)
	}
	// Ops without a bucket fall back to the built-in default.
	ag, err := comm.AllGather(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if ag.Algorithm() == "" {
		t.Error("fallback run lost its algorithm name")
	}
}

func TestDispatchPrecedence(t *testing.T) {
	tp := resccl.NewTopology(1, 4, resccl.A100())
	defTable, err := resccl.LoadDispatchTable(tableJSON(tp, `
    {"op": "Allreduce", "algorithm": "ring-allreduce", "protocol": "LL", "probe_bytes": 1048576, "completion_us": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	callTable, err := resccl.LoadDispatchTable(tableJSON(tp, `
    {"op": "Allreduce", "algorithm": "mesh-allreduce", "protocol": "Simple", "probe_bytes": 1048576, "completion_us": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	comm, err := resccl.NewCommunicator(tp, resccl.WithDispatchTable(defTable))
	if err != nil {
		t.Fatal(err)
	}

	// The communicator default applies when the call passes nothing.
	run, err := comm.AllReduce(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if run.Algorithm() != "ring-allreduce" {
		t.Errorf("default table ignored: ran %s", run.Algorithm())
	}
	// A per-call table beats the communicator default.
	run, err = comm.AllReduce(1<<20, resccl.WithDispatchTable(callTable))
	if err != nil {
		t.Fatal(err)
	}
	if run.Algorithm() != "mesh-allreduce" {
		t.Errorf("per-call table lost: ran %s", run.Algorithm())
	}
	// A nil per-call table restores the built-in default selection.
	run, err = comm.AllReduce(1<<20, resccl.WithDispatchTable(nil))
	if err != nil {
		t.Fatal(err)
	}
	if run.Algorithm() != "Mesh-AllReduce" {
		t.Errorf("nil table should restore the built-in default (mesh on one node), ran %s", run.Algorithm())
	}
	// A forced WithProtocol beats the table's tier but keeps its
	// algorithm pick — the WithProtocol precedence contract.
	run, err = comm.AllReduce(1<<20, resccl.WithProtocol(resccl.ProtoSimple))
	if err != nil {
		t.Fatal(err)
	}
	if run.Algorithm() != "ring-allreduce" || run.Protocol != resccl.ProtoSimple {
		t.Errorf("forced protocol: ran %s/%v, want ring-allreduce/Simple", run.Algorithm(), run.Protocol)
	}
}

// TestDispatchTableHashKeysPlanCache is the regression test for the
// stale-plan bug: two table generations that pick the same algorithm
// and tier must not share a cached plan.
func TestDispatchTableHashKeysPlanCache(t *testing.T) {
	tp := resccl.NewTopology(1, 4, resccl.A100())
	entry := `
    {"op": "Allreduce", "algorithm": "ring-allreduce", "protocol": "LL", "probe_bytes": 1048576, "completion_us": %d}`
	gen1, err := resccl.LoadDispatchTable(tableJSON(tp, fmt.Sprintf(entry, 10)))
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := resccl.LoadDispatchTable(tableJSON(tp, fmt.Sprintf(entry, 20)))
	if err != nil {
		t.Fatal(err)
	}
	if gen1.Hash() == gen2.Hash() {
		t.Fatal("distinct tables hash equal")
	}
	comm, err := resccl.NewCommunicator(tp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := comm.AllReduce(1<<20, resccl.WithDispatchTable(gen1)); err != nil {
		t.Fatal(err)
	}
	if st := comm.PlanCacheStats(); st.Misses != 1 {
		t.Fatalf("first dispatch: %d misses, want 1", st.Misses)
	}
	// Same table again: the plan must be served from cache.
	if _, err := comm.AllReduce(1<<20, resccl.WithDispatchTable(gen1)); err != nil {
		t.Fatal(err)
	}
	if st := comm.PlanCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("repeat dispatch: %d hits / %d misses, want 1/1", st.Hits, st.Misses)
	}
	// A re-tuned table must recompile, not reuse generation 1's plan.
	if _, err := comm.AllReduce(1<<20, resccl.WithDispatchTable(gen2)); err != nil {
		t.Fatal(err)
	}
	if st := comm.PlanCacheStats(); st.Misses != 2 {
		t.Fatalf("re-tuned dispatch: %d misses, want 2 (stale plan served)", st.Misses)
	}
}

// TestAutotuneSelectsSimBest is the end-to-end acceptance: a 2×8 A100
// communicator under WithAutotune must, at every swept grid point,
// run exactly the algorithm and tier the tuner measured fastest — and
// the tuned table must match the pinned golden sweep.
func TestAutotuneSelectsSimBest(t *testing.T) {
	if testing.Short() {
		t.Skip("autotune sweep skipped in -short mode")
	}
	tp := resccl.NewTopology(2, 8, resccl.A100())
	comm, err := resccl.NewCommunicator(tp, resccl.WithAutotune())
	if err != nil {
		t.Fatal(err)
	}
	table, err := comm.Tune()
	if err != nil {
		t.Fatal(err)
	}
	data, err := table.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("internal", "tune", "testdata", "dispatch.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(data, '\n'), golden) {
		t.Error("communicator's autotuned table differs from the golden sweep")
	}
	back, err := resccl.LoadDispatchTable(data)
	if err != nil {
		t.Fatal(err)
	}
	probes := map[string]func(int64) (*resccl.Run, error){
		"Allreduce": func(n int64) (*resccl.Run, error) { return comm.AllReduce(n) },
		"Allgather": func(n int64) (*resccl.Run, error) { return comm.AllGather(n) },
	}
	n := 0
	for _, e := range dispatchEntries(t, back) {
		call, ok := probes[e.Op]
		if !ok {
			t.Fatalf("golden table has unexpected op %q", e.Op)
		}
		run, err := call(e.ProbeBytes)
		if err != nil {
			t.Fatalf("%s @ %d: %v", e.Op, e.ProbeBytes, err)
		}
		if run.Algorithm() != e.Algorithm {
			t.Errorf("%s @ %d: ran %s, tuner chose %s", e.Op, e.ProbeBytes, run.Algorithm(), e.Algorithm)
		}
		if run.Protocol.String() != e.Protocol {
			t.Errorf("%s @ %d: tier %v, tuner chose %s", e.Op, e.ProbeBytes, run.Protocol, e.Protocol)
		}
		n++
	}
	if n == 0 {
		t.Fatal("golden table had no entries")
	}
}

// dispatchEntry mirrors the dispatch-table JSON schema for tests.
type dispatchEntry struct {
	Op           string  `json:"op"`
	MaxBytes     int64   `json:"max_bytes"`
	Algorithm    string  `json:"algorithm"`
	Protocol     string  `json:"protocol"`
	ProbeBytes   int64   `json:"probe_bytes"`
	CompletionUS float64 `json:"completion_us"`
}

func dispatchEntries(t *testing.T, d *resccl.DispatchTable) []dispatchEntry {
	t.Helper()
	data, err := d.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Entries []dispatchEntry `json:"entries"`
	}
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	return wire.Entries
}
