package train

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenSimulate pins every Result field and the Chrome trace of a
// set of deployments under each backend: data and tensor parallelism,
// two and four servers, generated faults and a forced tier. Regenerate
// with
//
//	go test ./internal/train -run TestGoldenSimulate -update
func TestGoldenSimulate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 21 training iterations")
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"T5-220M DP16 2x8", Config{Model: T5_220M, GlobalBatch: 16, TP: 1, DP: 16, NNodes: 2, GPN: 8}},
		{"GPT3-13B TP8 2x8", Config{Model: GPT3_13B, GlobalBatch: 16, TP: 8, DP: 2, NNodes: 2, GPN: 8}},
		{"GPT3-6.7B TP8 4x8", Config{Model: GPT3_6_7B, GlobalBatch: 32, TP: 8, DP: 4, NNodes: 4, GPN: 8}},
		{"T5-220M DP16 2x8 FaultRate 4", Config{Model: T5_220M, GlobalBatch: 16, TP: 1, DP: 16, NNodes: 2, GPN: 8, FaultRate: 4}},
		{"GPT3-13B TP8 2x8 FaultRate 4 seed 3", Config{Model: GPT3_13B, GlobalBatch: 16, TP: 8, DP: 2, NNodes: 2, GPN: 8, FaultRate: 4, FaultSeed: 3}},
		{"T5-220M TP8 2x8", Config{Model: T5_220M, GlobalBatch: 16, TP: 8, DP: 2, NNodes: 2, GPN: 8}},
		{"GPT3-13B TP8 2x8 LL128", Config{Model: GPT3_13B, GlobalBatch: 16, TP: 8, DP: 2, NNodes: 2, GPN: 8, Protocol: ir.ProtoLL128}},
	}
	var got bytes.Buffer
	for _, tc := range cases {
		for _, b := range backends() {
			cfg := tc.cfg
			cfg.Trace = obs.NewTrace()
			r, err := Simulate(cfg, b)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, b.Name(), err)
			}
			h := sha256.New()
			if err := cfg.Trace.WriteChrome(h); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s/%s: model=%s iter=%.9g compute=%.9g tp=%.9g dp=%.9g exposed_dp=%.9g sm_penalty=%.9g tbs=%d throughput=%.9g trace=%x\n",
				tc.name, r.Backend, r.Model, r.IterTime, r.Compute, r.TPComm, r.DPComm, r.ExposedDP, r.SMPenalty, r.CommTBs, r.Throughput, h.Sum(nil))
		}
	}
	golden := filepath.Join("testdata", "simulate.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("training results drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
