package exec

import (
	"context"
	"sync"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/obs"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

func ringAllReduce(t *testing.T, n int) *ir.Algorithm {
	t.Helper()
	algo, err := expert.Build("ring-allreduce", n)
	if err != nil {
		t.Fatal(err)
	}
	return algo
}

// TestProtocol: a forced tier passes through, NCCL auto with a size
// becomes sim.SelectProtocol's pick, and every other auto stays auto.
func TestProtocol(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	algo := ringAllReduce(t, 16)
	cases := []struct {
		backend backend.Backend
		proto   ir.Protocol
		bytes   int64
		want    ir.Protocol
	}{
		{backend.NewNCCL(), ir.ProtoAuto, 256 << 10, sim.SelectProtocol(tp, ir.OpAllReduce, 256<<10)},
		{backend.NewNCCL(), ir.ProtoAuto, 64 << 20, sim.SelectProtocol(tp, ir.OpAllReduce, 64<<20)},
		{backend.NewNCCL(), ir.ProtoAuto, 0, ir.ProtoAuto},
		{backend.NewNCCL(), ir.ProtoLL128, 64 << 20, ir.ProtoLL128},
		{backend.NewResCCL(), ir.ProtoAuto, 256 << 10, ir.ProtoAuto},
		{backend.NewMSCCL(), ir.ProtoAuto, 256 << 10, ir.ProtoAuto},
		{backend.NewResCCL(), ir.ProtoLL, 256 << 10, ir.ProtoLL},
	}
	if cases[0].want != ir.ProtoLL || cases[1].want != ir.ProtoSimple {
		t.Fatalf("SelectProtocol picks %v and %v; the cases assume LL and Simple", cases[0].want, cases[1].want)
	}
	for _, tc := range cases {
		req := Request{Backend: tc.backend, Cache: backend.NewCache(), Topo: tp}
		o, err := Compile(context.Background(), req, Call{Algo: algo, BufferBytes: tc.bytes, Protocol: tc.proto})
		if err != nil {
			t.Fatal(err)
		}
		if o.Protocol != tc.want || o.Plan.Kernel.Protocol != tc.want {
			t.Errorf("%s %v at %d B: resolved %v, kernel %v; want %v",
				tc.backend.Name(), tc.proto, tc.bytes, o.Protocol, o.Plan.Kernel.Protocol, tc.want)
		}
	}
}

// TestRunCountsIntoMetrics: a cold then a warm call report the cache
// miss and hit, and every counter the Communicator publishes.
func TestRunCountsIntoMetrics(t *testing.T) {
	m := obs.NewMetrics()
	req := Request{Backend: backend.NewResCCL(), Cache: backend.NewCache(), Keys: &Keys{}, Topo: topo.New(1, 4, topo.A100()), Metrics: m}
	call := Call{Algo: ringAllReduce(t, 4), BufferBytes: 4 << 20, Name: "ring-allreduce"}
	for i, wantHit := range []bool{false, true} {
		outs, err := Run(context.Background(), req, call)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || outs[0].Hit != wantHit || outs[0].Result == nil {
			t.Fatalf("call %d: outcomes %+v, want one with hit %v and a result", i, outs, wantHit)
		}
	}
	for name, want := range map[string]int64{"plan_cache.misses": 1, "plan_cache.hits": 1, "sim.runs": 2} {
		if got := m.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if m.Counter("sim.events") <= 0 || m.Counter("sim.instances") <= 0 {
		t.Errorf("simulator counters not published: events %d, instances %d", m.Counter("sim.events"), m.Counter("sim.instances"))
	}
}

// TestRunSeveralMatchesSim: several calls run as one concurrent
// simulation, and each outcome is its session's result.
func TestRunSeveralMatchesSim(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	req := Request{Backend: backend.NewResCCL(), Cache: backend.NewCache(), Topo: tp}
	calls := []Call{{Algo: ringAllReduce(t, 4), BufferBytes: 1 << 20}, {Algo: ringAllReduce(t, 4), BufferBytes: 8 << 20}}
	outs, err := Run(context.Background(), req, calls...)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]sim.Session, len(calls))
	for i, c := range calls {
		sessions[i] = sim.Session{Kernel: outs[i].Plan.Kernel, BufferBytes: c.BufferBytes, ChunkBytes: 1 << 20}
	}
	mr, err := sim.RunConcurrent(sim.MultiConfig{Topo: tp, Sessions: sessions})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Result.Completion != mr.Sessions[i].Completion {
			t.Errorf("call %d: completion %g, direct concurrent run %g", i, o.Result.Completion, mr.Sessions[i].Completion)
		}
	}
	if !outs[1].Hit {
		t.Error("the second call of an identical algorithm missed the cache")
	}
}

// TestKeysMatchFingerprint: the memo holds, per (name, tier, table
// hash), the key backend.Fingerprint computes, also when goroutines
// fill it at once.
func TestKeysMatchFingerprint(t *testing.T) {
	var k Keys
	b, tp, algo := backend.NewResCCL(), topo.New(1, 4, topo.A100()), ringAllReduce(t, 4)
	reqs := []backend.Request{
		{Algo: algo, Topo: tp},
		{Algo: algo, Topo: tp, Protocol: ir.ProtoLL},
		{Algo: algo, Topo: tp, Protocol: ir.ProtoLL, TuneHash: "table"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range reqs {
				k.key("ring", b, r)
			}
		}()
	}
	wg.Wait()
	if len(k.m) != len(reqs) {
		t.Fatalf("memo holds %d keys for %d requests", len(k.m), len(reqs))
	}
	for _, r := range reqs {
		got, gotOK := k.key("ring", b, r)
		want, wantOK := backend.Fingerprint(b, r)
		if got != want || gotOK != wantOK {
			t.Errorf("%v/%q: memoised key %x (%v), fingerprint %x (%v)", r.Protocol, r.TuneHash, got, gotOK, want, wantOK)
		}
	}
	if _, ok := k.key("", b, reqs[0]); ok {
		t.Error("an unnamed call got a memoised key")
	}
	var none *Keys
	if _, ok := none.key("ring", b, reqs[0]); ok {
		t.Error("a nil memo returned a key")
	}
}
