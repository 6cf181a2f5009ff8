package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/synth"
	"github.com/resccl/resccl/internal/topo"
)

// settleGoroutines waits for the goroutine count to fall back to base:
// a joined goroutine may still be returning when the join does.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the compile, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCompileErrorPrecedence pins which error a failing compile
// returns now that the postcondition replay runs beside the pipeline:
// the replay's, then the pipeline's, each worded as when the passes
// ran one after another, and no goroutine outlives the call.
func TestCompileErrorPrecedence(t *testing.T) {
	broken := func(nRanks int) *ir.Algorithm {
		// An AllGather that delivers chunk 0 to rank 1 only.
		return &ir.Algorithm{
			Name: "broken", Op: ir.OpAllGather, NRanks: nRanks, NChunks: nRanks,
			Transfers: []ir.Transfer{
				{Src: 0, Dst: 1, Step: 0, Chunk: 0, Type: ir.CommRecv},
				{Src: 1, Dst: 2, Step: 0, Chunk: 1, Type: ir.CommRecv},
			},
		}
	}
	hm, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const postcondition = `core: algorithm "broken" fails its Allgather postcondition: ` +
		`verify: Allgather postcondition: rank 2 chunk 0 holds no valid data, want contributions [0]`
	for _, tc := range []struct {
		name string
		ctx  context.Context
		algo *ir.Algorithm
		tp   *topo.Topology
		want string
	}{
		{"postcondition", context.Background(), broken(4), topo.New(1, 4, topo.A100()), postcondition},
		// The algorithm also mismatches the topology: the replay still wins.
		{"postcondition-and-ranks", context.Background(), broken(8), topo.New(1, 4, topo.A100()), postcondition},
		{"rank-mismatch", context.Background(), hm, topo.New(2, 8, topo.A100()),
			`core: dependency analysis: dag: algorithm "HM-AllReduce" has 8 ranks but topology has 16`},
		{"cancelled-before", cancelled, hm, topo.New(2, 4, topo.A100()),
			"core: compile cancelled before verification: context canceled"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			c, err := Compile(tc.ctx, tc.algo, tc.tp, Options{})
			if c != nil || err == nil || err.Error() != tc.want {
				t.Fatalf("Compile = %v, %v; want error %q", c, err, tc.want)
			}
			settleGoroutines(t, base)
		})
	}
}

// TestCompileDeadlineMidway lets a deadline expire while a 512-rank
// compile runs: the pipeline stops at its next checkpoint with a typed
// cancellation error, and no goroutine outlives the call.
func TestCompileDeadlineMidway(t *testing.T) {
	tp := topo.NewRail(64, 8, topo.A100(), 2)
	algo, err := synth.HierAllReduce(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The fastest of three uncancelled compiles sets the deadline: a
	// quarter of it expires before any compile can finish.
	full := time.Hour
	for range 3 {
		start := time.Now()
		if _, err := Compile(context.Background(), algo, tp, Options{}); err != nil {
			t.Fatal(err)
		}
		full = min(full, time.Since(start))
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), full/4)
	defer cancel()
	c, err := Compile(ctx, algo, tp, Options{})
	if c != nil || !errors.Is(err, context.DeadlineExceeded) ||
		!strings.HasPrefix(err.Error(), "core: compile cancelled before ") {
		t.Fatalf("Compile = %v, %v; want a cancellation error", c, err)
	}
	t.Log(err)
	settleGoroutines(t, base)
}
