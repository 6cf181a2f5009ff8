package trace

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"github.com/resccl/resccl/internal/backend"
	"github.com/resccl/resccl/internal/expert"
	"github.com/resccl/resccl/internal/fault"
	"github.com/resccl/resccl/internal/ir"
	"github.com/resccl/resccl/internal/sim"
	"github.com/resccl/resccl/internal/topo"
)

func analyzed(t *testing.T, b backend.Backend) (*Utilization, *sim.Result) {
	t.Helper()
	tp := topo.New(2, 4, topo.A100())
	algo, err := expert.HMAllReduce(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := b.Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 128 << 20, ChunkBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(plan.Kernel, res, plan.Backend), res
}

func TestAnalyzeInvariants(t *testing.T) {
	for _, b := range []backend.Backend{backend.NewMSCCL(), backend.NewResCCL()} {
		u, res := analyzed(t, b)
		if u.TBs <= 0 || u.TotalTBs < u.TBs {
			t.Errorf("%s: implausible TB counts %d/%d", b.Name(), u.TBs, u.TotalTBs)
		}
		if u.CommTime <= 0 || u.CommTime > 1.0000001 {
			t.Errorf("%s: comm time %f out of range", b.Name(), u.CommTime)
		}
		if u.AvgIdle < 0 || u.AvgIdle > 1 || u.MaxIdle < u.AvgIdle {
			t.Errorf("%s: idle ratios avg=%f max=%f inconsistent", b.Name(), u.AvgIdle, u.MaxIdle)
		}
		for _, r := range u.Reports {
			if r.Occupancy <= 0 || r.Occupancy > res.Completion+1e-12 {
				t.Errorf("%s TB %d: occupancy %f out of range", b.Name(), r.ID, r.Occupancy)
			}
			if r.Exec+r.Idle > r.Occupancy*1.0000001+1e-12 {
				t.Errorf("%s TB %d: exec+idle exceeds occupancy", b.Name(), r.ID)
			}
			if r.Saving < -1e-12 {
				t.Errorf("%s TB %d: negative saving", b.Name(), r.ID)
			}
		}
		if !strings.Contains(u.String(), b.Name()) {
			t.Errorf("String() should mention the backend: %q", u.String())
		}
	}
}

// Early release: ResCCL TBs' occupancy ends at their own release, so
// some saving must be positive; MSCCL TBs occupy until completion, so
// saving-as-occupancy-difference shows up as idle instead.
func TestEarlyRelease(t *testing.T) {
	ru, _ := analyzed(t, backend.NewResCCL())
	anySaving := false
	for _, r := range ru.Reports {
		if r.Saving > 0 {
			anySaving = true
		}
	}
	if !anySaving {
		t.Error("ResCCL should release at least one TB before global completion")
	}
	mu, mres := analyzed(t, backend.NewMSCCL())
	for _, r := range mu.Reports {
		if r.Occupancy != mres.Completion {
			t.Errorf("MSCCL TB %d should occupy until completion", r.ID)
		}
	}
}

// MSCCL's manually added channels must be identifiable and mostly idle
// (the Fig. 2(a) phenomenon).
func TestExtraChannelIdle(t *testing.T) {
	mu, _ := analyzed(t, backend.NewMSCCL())
	idle, ok := mu.ExtraChannelIdle()
	if !ok {
		t.Fatal("MSCCL expert plan should have extra channels")
	}
	if idle <= mu.CommTime {
		t.Logf("extra-channel idle %.1f%% (comm %.1f%%)", 100*idle, 100*mu.CommTime)
	}
	if idle <= 0 || idle > 1 {
		t.Errorf("extra-channel idle %f out of range", idle)
	}
	ru, _ := analyzed(t, backend.NewResCCL())
	if _, ok := ru.ExtraChannelIdle(); ok {
		t.Error("ResCCL plans have no extra channels")
	}
}

func TestRankBreakdown(t *testing.T) {
	u, _ := analyzed(t, backend.NewResCCL())
	b := RankBreakdown(u, 0)
	if len(b.TBs) == 0 {
		t.Fatal("rank 0 must host TBs")
	}
	for _, r := range b.TBs {
		if r.Rank != 0 {
			t.Errorf("TB %d: rank %d in rank-0 breakdown", r.ID, r.Rank)
		}
	}
	total := 0
	for r := 0; r < 8; r++ {
		total += len(RankBreakdown(u, r).TBs)
	}
	if total != len(u.Reports) {
		t.Errorf("per-rank breakdowns cover %d of %d TBs", total, len(u.Reports))
	}
}

func TestMaxSyncRatio(t *testing.T) {
	u, _ := analyzed(t, backend.NewMSCCL())
	s := u.MaxSyncRatio()
	if s <= 0 || s > 1 {
		t.Errorf("max sync ratio %f out of range", s)
	}
}

func TestIdleRatioZeroOccupancy(t *testing.T) {
	r := TBReport{}
	if r.IdleRatio() != 0 {
		t.Error("zero occupancy must yield zero idle ratio")
	}
	_ = ir.Rank(0)
}

func TestRenderTimeline(t *testing.T) {
	tp := topo.New(1, 4, topo.A100())
	algo, err := expert.RingAllGather(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20, RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTimeline(plan.Kernel, res, 60, 2)
	if !strings.Contains(out, "rank 0") || !strings.Contains(out, "█") {
		t.Errorf("timeline missing expected content:\n%s", out)
	}
	if !strings.Contains(out, "more ranks") {
		t.Errorf("timeline should elide ranks beyond the limit:\n%s", out)
	}
	// Degenerate inputs stay safe.
	if RenderTimeline(plan.Kernel, &sim.Result{}, 0, 0) == "" {
		t.Error("empty result should render a placeholder")
	}
}

// TestRenderTimelinePinned pins the full chart, every rank of it, of a
// clean and a transiently faulted 2×8 hm-allreduce run, so a change to
// how the busy intervals are recorded or derived cannot move a cell.
func TestRenderTimelinePinned(t *testing.T) {
	tp := topo.New(2, 8, topo.A100())
	algo, err := expert.BuildOn("hm-allreduce", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := backend.NewResCCL().Compile(context.Background(), backend.Request{Algo: algo, Topo: tp})
	if err != nil {
		t.Fatal(err)
	}
	run := func(faults *fault.Schedule) *sim.Result {
		res, err := sim.Run(sim.Config{Topo: tp, Kernel: plan.Kernel, BufferBytes: 16 << 20, ChunkBytes: 1 << 20,
			Faults: faults, RecordTimeline: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := run(nil)
	faulted := run(fault.Within(tp, 7, 6, clean.Completion, len(plan.Kernel.TBs)))
	if len(faulted.Faults) == 0 {
		t.Fatal("the faulted run applied no fault")
	}
	for _, tc := range []struct {
		name string
		res  *sim.Result
		want string
	}{
		{"clean", clean, "796b8c33f006e979df75e6bfabcfeafcc6f04dfb0befc56632ffd38fac4462c1"},
		{"faulted", faulted, "d5e897f9ef7a28739f3d20acd7fbaa6a995eb0c749e7857287c18037240a4d52"},
	} {
		sum := sha256.Sum256([]byte(RenderTimeline(plan.Kernel, tc.res, 100, 0)))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: timeline sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
