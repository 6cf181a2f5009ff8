package resccl_test

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/resccl/resccl"
	"github.com/resccl/resccl/internal/serve"
)

// TestServeMatchesCommunicator: the plan service and the Communicator
// answer the same ring AllReduce on 2×8 A100 with the same tier and
// completion — NCCL auto picks its tier by size on both.
func TestServeMatchesCommunicator(t *testing.T) {
	cases := []struct {
		backend  resccl.BackendKind
		protocol resccl.Protocol
		bytes    int64
		want     string // the tier both must run
	}{
		{resccl.BackendNCCL, resccl.ProtoAuto, 256 << 10, "LL"},
		{resccl.BackendNCCL, resccl.ProtoAuto, 2 << 20, "LL"},
		{resccl.BackendNCCL, resccl.ProtoAuto, 64 << 20, "Simple"},
		{resccl.BackendNCCL, resccl.ProtoSimple, 256 << 10, "Simple"},
		{resccl.BackendResCCL, resccl.ProtoAuto, 2 << 20, "auto"},
	}
	svc := serve.New(serve.Config{})
	algo, err := resccl.BuildAlgorithm("ring-allreduce", 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		comm, err := resccl.NewCommunicator(resccl.NewTopology(2, 8, resccl.A100()), resccl.WithBackend(tc.backend))
		if err != nil {
			t.Fatal(err)
		}
		run, err := comm.RunAlgorithm(algo, tc.bytes, resccl.WithProtocol(tc.protocol))
		if err != nil {
			t.Fatal(err)
		}
		req := serve.CompileRequest{Backend: comm.Backend(), Algorithm: "ring-allreduce", Nodes: 2, GPUsPerNode: 8}
		if tc.protocol.Forced() {
			req.Protocol = tc.protocol.String()
		}
		resp, err := svc.Simulate(context.Background(), &serve.SimulateRequest{CompileRequest: req, BufferBytes: tc.bytes})
		if err != nil {
			t.Fatal(err)
		}
		name := comm.Backend() + "/" + tc.protocol.String()
		if got := run.Protocol.String(); got != tc.want || resp.Protocol != tc.want {
			t.Errorf("%s at %d B: tiers %s (Communicator) and %s (serve), want %s", name, tc.bytes, got, resp.Protocol, tc.want)
		}
		// Run.Completion is whole nanoseconds; serve reports float µs.
		served := time.Duration(math.Round(resp.CompletionUS * 1e3))
		if d := run.Completion - served; d < -time.Nanosecond || d > time.Nanosecond {
			t.Errorf("%s at %d B: completion %v (Communicator) and %v (serve)", name, tc.bytes, run.Completion, served)
		}
	}
}
