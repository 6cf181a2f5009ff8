package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/kernel"
	"github.com/resccl/resccl/internal/topo"
)

// The incremental solver (dirty-link coalescing + per-component
// re-solve) must be a pure optimization: every observable quantity —
// completion, per-TB stats, link busy time, instance counts, timelines,
// applied faults — must be bit-identical to the retained full-re-solve
// reference (Config.FullResolve). Only Events may differ: coalescing
// batches same-timestamp boundaries, so the incremental run schedules
// fewer rate-boundary events. These tests are the contract.

// normalize prepares a Result for cross-strategy comparison: the event
// counter is zeroed (coalescing legitimately schedules fewer boundary
// events), and the timeline is put in a canonical order — spans record
// completion order, and the order WITHIN one batch of simultaneous
// completions follows event push order, which differs between
// strategies. Every span's fields, including its float timings, must
// still match bit for bit.
func normalize(r *Result) *Result {
	c := *r
	c.Events = 0
	c.Timeline = append([]InstanceSpan(nil), r.Timeline...)
	sort.SliceStable(c.Timeline, func(i, j int) bool {
		a, b := c.Timeline[i], c.Timeline[j]
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.MB < b.MB
	})
	return &c
}

func requireIdentical(t *testing.T, label string, inc, full *Result) {
	t.Helper()
	if !reflect.DeepEqual(normalize(inc), normalize(full)) {
		t.Fatalf("%s: incremental result diverges from full re-solve reference\nincremental: completion=%.17g instances=%d\nfull:        completion=%.17g instances=%d",
			label, inc.Completion, inc.Instances, full.Completion, full.Instances)
	}
	if inc.Events > full.Events {
		t.Errorf("%s: incremental solver processed MORE events (%d) than the eager reference (%d)",
			label, inc.Events, full.Events)
	}
}

// requireSolversAgree runs cfg, with a timeline, under both solvers
// and requires bit-identical results.
func requireSolversAgree(t *testing.T, label string, cfg Config) {
	t.Helper()
	cfg.RecordTimeline = true
	cfg.FullResolve = false
	inc, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	cfg.FullResolve = true
	full, err := Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireIdentical(t, label, inc, full)
}

// TestIncrementalMatchesFullResolve sweeps shapes, backends and
// topologies fault-free: per-flow rate evolution must agree exactly,
// so all derived timings must too.
func TestIncrementalMatchesFullResolve(t *testing.T) {
	cases := []struct {
		name string
		tp   *topo.Topology
		algo func() (*ir.Algorithm, error)
	}{
		{"mesh-1x4", topo.New(1, 4, topo.A100()),
			func() (*ir.Algorithm, error) { return expert.MeshAllReduce(4) }},
		{"hm-2x4", topo.New(2, 4, topo.A100()),
			func() (*ir.Algorithm, error) { return expert.HMAllReduce(2, 4) }},
		{"hm-2x8-v100", topo.New(2, 8, topo.V100()),
			func() (*ir.Algorithm, error) { return expert.HMAllReduce(2, 8) }},
		{"hier-4x4-clos", topo.NewClos(4, 4, topo.A100(), 2),
			func() (*ir.Algorithm, error) { return expert.Build("hier-allreduce", 4, 4) }},
		{"hier-4x4-rail", topo.NewRail(4, 4, topo.A100(), 4),
			func() (*ir.Algorithm, error) { return expert.Build("hier-allreduce", 4, 4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			algo, err := tc.algo()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tc.tp})
			if err != nil {
				t.Fatal(err)
			}
			requireSolversAgree(t, tc.name, Config{Topo: tc.tp, Kernel: plan.Kernel,
				BufferBytes: 32 << 20, ChunkBytes: 1 << 20})
		})
	}
}

// TestIncrementalMatchesFullResolveProtocols pins the equivalence under
// every protocol tier — the tiers change per-chunk alpha/beta costs and
// the effective chunking, exercising different event interleavings.
func TestIncrementalMatchesFullResolveProtocols(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	for _, proto := range []ir.Protocol{ir.ProtoLL, ir.ProtoLL128, ir.ProtoSimple} {
		algo := &ir.Algorithm{Name: "eq-proto", Op: ir.OpAllReduce, NRanks: 16, NChunks: 16}
		plan, err := backend.NewNCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		requireSolversAgree(t, proto.String(), Config{Topo: tp, Kernel: plan.Kernel,
			BufferBytes: 8 << 20, ChunkBytes: 1 << 20})
	}
}

// TestIncrementalMatchesFullResolveUnderFaults drives both solvers
// through seeded chaos-style fault schedules — link flaps, degrades and
// stragglers force mid-flight capacity changes, the hardest case for
// dirty-set bookkeeping.
func TestIncrementalMatchesFullResolveUnderFaults(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 32 << 20, ChunkBytes: 1 << 20}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		sched := fault.Generate(tp, fault.Params{
			Seed: seed, N: 10, Horizon: clean.Completion,
			MeanDuration: clean.Completion / 5, NTBs: len(plan.Kernel.TBs),
		})
		cfg := base
		cfg.Faults = sched
		requireSolversAgree(t, fmt.Sprintf("seed %d", seed), cfg)
	}
}

// TestIncrementalMatchesFullResolveConcurrent covers multi-session
// contention: sessions share fabric resources, so one session's
// arrivals dirty components that span another's flows.
func TestIncrementalMatchesFullResolveConcurrent(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	ses := Session{Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20}
	inc, err := RunConcurrent(MultiConfig{Topo: tp, Sessions: []Session{ses, ses, ses}})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunConcurrent(MultiConfig{Topo: tp, Sessions: []Session{ses, ses, ses}, FullResolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Sessions) != len(full.Sessions) {
		t.Fatalf("session count mismatch: %d vs %d", len(inc.Sessions), len(full.Sessions))
	}
	for i := range inc.Sessions {
		requireIdentical(t, fmt.Sprintf("session %d", i), inc.Sessions[i], full.Sessions[i])
	}
	if inc.Completion != full.Completion {
		t.Fatalf("overall completion differs: %.17g vs %.17g", inc.Completion, full.Completion)
	}
}

// TestIncrementalMatchesFullResolveCongested covers background
// congestion on NIC queues and NVLink ports: degrade windows that open
// at 0 and outlast the run, down to 5% of capacity.
func TestIncrementalMatchesFullResolveCongested(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	k := compileAR(t, tp, 2, 4).Kernel
	cong := &fault.Schedule{Events: []fault.Event{
		background(0.5, tp.NICEgress(0)), background(0.95, tp.NICIngress(1)), background(0.95, tp.NICEgress(3)),
		background(0.3, tp.EgressPort(2)), background(0.7, tp.IngressPort(5)),
	}}
	requireSolversAgree(t, "congested", Config{Topo: tp, Kernel: k,
		BufferBytes: 32 << 20, ChunkBytes: 1 << 20, Faults: cong})
}

// TestIncrementalMatchesFullResolveOutage takes links fully out: a
// link-down window and a NIC flap mid-run, and a permanent link-out —
// the deepest capacity drop a fault schedule can express (capacity
// factor fault.DownFactor; the schedule rejects a factor of 0).
func TestIncrementalMatchesFullResolveOutage(t *testing.T) {
	tp := topo.New(2, 4, topo.A100())
	k := compileAR(t, tp, 2, 4).Kernel
	base := Config{Topo: tp, Kernel: k, BufferBytes: 32 << 20, ChunkBytes: 1 << 20}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	c := clean.Completion
	for _, tc := range []struct {
		name   string
		events []fault.Event
	}{
		{"link-down", []fault.Event{fault.LinkDown(tp.NICEgress(1), c/4, c/3)}},
		{"nic-flap+nvlink-down", []fault.Event{
			fault.NICFlap(tp, 2, c/5, c/4),
			fault.LinkDown(tp.EgressPort(6), c/3, c/2),
		}},
		{"link-out", []fault.Event{fault.LinkOut(tp.IngressPort(3), c/2)}},
	} {
		cfg := base
		cfg.Faults = &fault.Schedule{Events: tc.events}
		requireSolversAgree(t, tc.name, cfg)
	}
}

// TestIncrementalMatchesFullResolveLoneFlows pins the closed-form rate
// of a flow alone on every resource it crosses against progressive
// filling: flows bound by their TB cap, by the link, by a cap within
// 1e-12 of the link's capacity on either side, and by zero-capacity
// NIC links. A 1×8 ring runs every flow alone on its ports; the 2×4
// plans mix lone and shared flows.
func TestIncrementalMatchesFullResolveLoneFlows(t *testing.T) {
	a100 := topo.A100()
	withCaps := func(intra, inter float64) topo.Profile {
		p := a100
		p.TBCapIntra, p.TBCapInter = intra, inter
		return p
	}
	zeroNIC := a100
	zeroNIC.NICBW = 0
	profiles := []struct {
		name string
		p    topo.Profile
	}{
		{"cap-bound", withCaps(a100.NVLinkBW/3, a100.NICBW/2)},
		{"link-bound", withCaps(2*a100.NVLinkBW, 3*a100.NICBW)},
		{"cap-just-above", withCaps(a100.NVLinkBW*(1+5e-13), a100.NICBW*(1+9e-13))},
		{"cap-just-below", withCaps(a100.NVLinkBW*(1-5e-13), a100.NICBW*(1-9e-13))},
		{"cap-just-outside", withCaps(a100.NVLinkBW*(1+2e-12), a100.NICBW*(1+2e-12))},
		{"zero-capacity-nic", zeroNIC},
	}
	for _, pc := range profiles {
		ring := topo.New(1, 8, pc.p)
		algo, err := expert.Build("ring-allreduce", 8)
		if err != nil {
			t.Fatal(err)
		}
		k := compileWith(t, backend.NewResCCL(), algo, ring, ir.ProtoAuto)
		requireSolversAgree(t, pc.name+"/ring-1x8", Config{Topo: ring, Kernel: k,
			BufferBytes: 16 << 20, ChunkBytes: 1 << 20})

		tp := topo.New(2, 4, pc.p)
		k = compileAR(t, tp, 2, 4).Kernel
		requireSolversAgree(t, pc.name+"/hm-2x4", Config{Topo: tp, Kernel: k,
			BufferBytes: 8 << 20, ChunkBytes: 1 << 20})
		clean, err := Run(Config{Topo: tp, Kernel: k, BufferBytes: 8 << 20, ChunkBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		requireSolversAgree(t, pc.name+"/hm-2x4-straggler", Config{Topo: tp, Kernel: k,
			BufferBytes: 8 << 20, ChunkBytes: 1 << 20, Faults: &fault.Schedule{Events: []fault.Event{
				fault.Straggler(0, clean.Completion/4, clean.Completion/2, 3),
			}}})
	}
}

// The incremental solver leaves out of each component solve the
// resources that cannot bind (cannotBind): one flow, with a cap no
// larger than the resource's capacity. The cases below hold it to the
// full re-solve where that rule is closest to wrong. Each also carries a
// lone flow on a resource whose capacity is below the flow's cap, inside
// a component with other flows, so a rule that skipped every lone flow
// fails every one of them.

// sendTBOn returns the send TB of the first task of k that crosses
// src→dst's pair link.
func sendTBOn(t *testing.T, k *kernel.Kernel, src, dst ir.Rank) int {
	t.Helper()
	for i, task := range k.Graph.Tasks {
		if task.Src == src && task.Dst == dst {
			return k.SendTB[i]
		}
	}
	t.Fatalf("no task of %s crosses %d→%d", k.Name, src, dst)
	return -1
}

// TestIncrementalMatchesFullResolveBelowCap runs lone flows on
// resources below their caps: NIC queues under a profile whose TB
// capability exceeds the NIC (2×4, GPUs sharing NICs), and a pair link
// degraded mid-run, whose flow shares its NVLink ports.
func TestIncrementalMatchesFullResolveBelowCap(t *testing.T) {
	p := topo.A100()
	p.TBCapInter = 2 * p.NICBW
	tp := topo.New(2, 4, p)
	k := compileAR(t, tp, 2, 4).Kernel
	base := Config{Topo: tp, Kernel: k, BufferBytes: 16 << 20, ChunkBytes: 1 << 20}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	c := clean.Completion
	requireSolversAgree(t, "nic-below-cap", base)
	cfg := base
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		fault.LinkDegrade(tp.PairLink(0, 1), c/5, c/2, 0.25),
		fault.LinkDegrade(tp.PairLink(6, 5), 0, 2*c, 0.5),
	}}
	requireSolversAgree(t, "nic-below-cap+pair-degrade", cfg)
}

// TestIncrementalMatchesFullResolveToleranceWindow places the NVLink
// ports' fair share inside the filling loop's tolerance window below
// the pair links' capacity. Every pair link is degraded to φ of NVLink
// and every intra-node flow capped at exactly that capacity, so each
// pair link alone under its flow cannot bind; with three flows on a
// port of a 1×4 mesh, the port's level NVLinkBW/3 lies δ below the cap,
// for δ inside and on the edge of the window of 1e-12. One pair link is
// degraded below the cap.
func TestIncrementalMatchesFullResolveToleranceWindow(t *testing.T) {
	a100 := topo.A100()
	for _, delta := range []float64{1e-13, 5e-13, 9e-13, 1e-12, 1.1e-12, 2e-12} {
		phi := (1.0 / 3) / (1 - delta)
		p := a100
		p.TBCapIntra = p.NVLinkBW * phi // == the degraded pair capacity, bit for bit
		tp := topo.New(1, 4, p)
		k := compileAR(t, tp, 1, 4).Kernel
		var events []fault.Event
		for s := ir.Rank(0); s < 4; s++ {
			for d := ir.Rank(0); d < 4; d++ {
				if s == d {
					continue
				}
				f := phi
				if s == 2 && d == 3 {
					f = phi / 2
				}
				events = append(events, fault.LinkDegrade(tp.PairLink(s, d), 0, 3600, f))
			}
		}
		requireSolversAgree(t, fmt.Sprintf("delta=%g", delta), Config{Topo: tp, Kernel: k,
			BufferBytes: 16 << 20, ChunkBytes: 1 << 20, Faults: &fault.Schedule{Events: events}})
	}
}

// TestIncrementalMatchesFullResolveStragglerCap lowers a flow's cap
// mid-run: its pair link is degraded below the cap for the whole run,
// and a straggler window on its send TB drops the cap below that
// capacity, so the link cannot bind only inside the window.
func TestIncrementalMatchesFullResolveStragglerCap(t *testing.T) {
	for _, shape := range [][2]int{{1, 4}, {2, 4}} {
		tp := topo.New(shape[0], shape[1], topo.A100())
		k := compileAR(t, tp, shape[0], shape[1]).Kernel
		base := Config{Topo: tp, Kernel: k, BufferBytes: 16 << 20, ChunkBytes: 1 << 20}
		clean, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		c := clean.Completion
		cfg := base
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			fault.LinkDegrade(tp.PairLink(0, 1), 0, 3600, 0.2),
			fault.Straggler(sendTBOn(t, k, 0, 1), c/4, c/4, 10),
		}}
		requireSolversAgree(t, fmt.Sprintf("%dx%d", shape[0], shape[1]), cfg)
	}
}

// TestCannotBindWindowEmpty checks cannotBind's float64 argument: with
// the filling loop's tolerances, the cap test c ≤ fl(ρ·(1+1e-12))
// passes for every level ρ that passes a lone flow's saturation test
// ρ ≥ fl(C·(1−1e-12)) when c ≤ C. fl is monotone, so the smallest such
// ρ decides; it is checked for capacities at the ends of a binade, at
// the normal/subnormal boundary, at the simulator's profile capacities,
// and at a seeded sample of normal and subnormal capacities.
func TestCannotBindWindowEmpty(t *testing.T) {
	k1, k2 := 1+1e-12, 1-1e-12
	if k1 != 1+9008*0x1p-53 || k2 != 1-9007*0x1p-53 {
		t.Fatalf("tolerances are %v and %v, not 1+9008·2⁻⁵³ and 1−9007·2⁻⁵³", k1, k2)
	}
	check := func(c float64) {
		if rho := c * (1 - 1e-12); rho*(1+1e-12) < c {
			t.Fatalf("capacity %v (bits %#x): level %v passes the saturation test, but the cap test fails at it",
				c, math.Float64bits(c), rho)
		}
	}
	for _, c := range []float64{0, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, math.Inf(1),
		1, 1.5, math.Nextafter(2, 0), topo.A100().NVLinkBW, topo.A100().NICBW, topo.V100().NVLinkBW} {
		check(c)
	}
	for m := uint64(1 << 52); m < 1<<52+4096; m++ {
		check(math.Ldexp(float64(m), -52))
		check(math.Ldexp(float64(1<<53-1-(m-1<<52)), -52))
	}
	rng := rand.New(rand.NewSource(1))
	for range 1 << 20 {
		m := 1<<52 | rng.Uint64()&(1<<52-1)
		check(math.Ldexp(float64(m), rng.Intn(2046)-1074))
		check(math.Float64frombits(rng.Uint64() & (1<<52 - 1))) // subnormal
	}
}
